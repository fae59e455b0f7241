package experiments

import (
	"fmt"
	"io"
)

// figure is one registered experiment: its name and a run that writes
// its tables.
type figure struct {
	name string
	run  func(cfg Config, w io.Writer) error
}

// fig registers one figure driver with the renderer of its tables.
func fig[R any](name string, drive func(Config) (R, error), tables func(R) []*Table) figure {
	return figure{name, func(cfg Config, w io.Writer) error {
		r, err := drive(cfg)
		if err != nil {
			return err
		}
		for _, t := range tables(r) {
			if err := t.Write(w); err != nil {
				return err
			}
		}
		return nil
	}}
}

// registry lists the experiments in Names order: paper figures by number,
// then extensions without a paper figure number.
var registry = []figure{
	fig("fig1", Fig1, (*Fig1Result).Tables),
	fig("fig3", Fig3, (*Fig3Result).Tables),
	fig("fig4", Fig4, (*Fig4Result).Tables),
	fig("fig7", Fig7, (*Fig7Result).Tables),
	fig("fig8", Fig8, (*Fig8Result).Tables),
	fig("fig9", Fig9, (*Fig9Result).Tables),
	fig("fig10", Fig10, (*Fig10Result).Tables),
	fig("fig15", Fig15, (*Fig15Result).Tables),
	fig("fig16", Fig16, (*Fig16Result).Tables),
	fig("fig17", Fig17, func(r *SweepResult) []*Table {
		return []*Table{r.Table("Figure 17: median max stretch vs load (LLPD > 0.5)",
			"B4 degrades sharply with load; MinMax converges toward optimal")}
	}),
	fig("fig18", Fig18, func(r *SweepResult) []*Table {
		return []*Table{r.Table("Figure 18: median max stretch vs locality (LLPD > 0.5)",
			"low locality (long-haul heavy) hurts B4 most; locality > 1 changes little")}
	}),
	fig("fig19", Fig19, (*Fig19Result).Tables),
	fig("fig20", Fig20, (*Fig20Result).Tables),
	fig("fig_dynamics", FigDynamics, (*FigDynamicsResult).Tables),
}

// Names lists the available experiments in order.
func Names() []string {
	names := make([]string, len(registry))
	for i, f := range registry {
		names[i] = f.name
	}
	return names
}

// Run executes the named experiment with the config, writing tables to w.
func Run(name string, cfg Config, w io.Writer) error {
	for _, f := range registry {
		if f.name == name {
			return f.run(cfg, w)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
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
