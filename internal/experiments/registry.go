package experiments

import (
	"fmt"
	"io"
	"sort"
)

// runner executes one experiment and writes its tables.
type runner func(cfg Config, w io.Writer) error

var registry = map[string]runner{
	"fig1": func(cfg Config, w io.Writer) error {
		r, err := Fig1(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig3": func(cfg Config, w io.Writer) error {
		r, err := Fig3(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig4": func(cfg Config, w io.Writer) error {
		r, err := Fig4(cfg)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			if err := t.Write(w); err != nil {
				return err
			}
		}
		return nil
	},
	"fig7": func(cfg Config, w io.Writer) error {
		r, err := Fig7(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig8": func(cfg Config, w io.Writer) error {
		r, err := Fig8(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig9": func(cfg Config, w io.Writer) error {
		r, err := Fig9(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig10": func(cfg Config, w io.Writer) error {
		r, err := Fig10(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig15": func(cfg Config, w io.Writer) error {
		r, err := Fig15(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig16": func(cfg Config, w io.Writer) error {
		r, err := Fig16(cfg)
		if err != nil {
			return err
		}
		for _, t := range r.Tables() {
			if err := t.Write(w); err != nil {
				return err
			}
		}
		return nil
	},
	"fig17": func(cfg Config, w io.Writer) error {
		r, err := Fig17(cfg)
		if err != nil {
			return err
		}
		return r.Table("Figure 17: median max stretch vs load (LLPD > 0.5)",
			"B4 degrades sharply with load; MinMax converges toward optimal").Write(w)
	},
	"fig18": func(cfg Config, w io.Writer) error {
		r, err := Fig18(cfg)
		if err != nil {
			return err
		}
		return r.Table("Figure 18: median max stretch vs locality (LLPD > 0.5)",
			"low locality (long-haul heavy) hurts B4 most; locality > 1 changes little").Write(w)
	},
	"fig19": func(cfg Config, w io.Writer) error {
		r, err := Fig19(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig20": func(cfg Config, w io.Writer) error {
		r, err := Fig20(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
	"fig_dynamics": func(cfg Config, w io.Writer) error {
		r, err := FigDynamics(cfg)
		if err != nil {
			return err
		}
		return r.Table().Write(w)
	},
}

// Names lists the available experiments in order.
func Names() []string {
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		// figN sorts numerically.
		return figNum(names[a]) < figNum(names[b])
	})
	return names
}

func figNum(s string) int {
	n, seen := 0, false
	for _, c := range s {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
			seen = true
		}
	}
	if !seen {
		// Extensions without a paper figure number (fig_dynamics) sort
		// after every numbered figure.
		return 1 << 30
	}
	return n
}

// Run executes the named experiment with the config, writing tables to w.
func Run(name string, cfg Config, w io.Writer) error {
	r, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg, w)
}

// RunAll executes every experiment in order, stopping early when the
// config's context is cancelled. The defaults are applied once, so every
// figure of the run shares one backend and recalls the cells an earlier
// figure placed.
func RunAll(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	for _, name := range Names() {
		if err := cfg.ctx().Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if _, err := fmt.Fprintf(w, "### %s\n", name); err != nil {
			return err
		}
		if err := Run(name, cfg, w); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
