package backend_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sync"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// capable is every optional extension of backend.go at once — the one
// place they are listed. TestWrappersForwardEveryCapability checks the
// list against backend.go's declarations, so an extension added there
// fails the test until it is listed here, and then until Forward
// forwards it.
type capable interface {
	backend.Backend
	backend.Sourced
	backend.Prober
	backend.ContextQuerier
	backend.Putter
	backend.KeyLister
	backend.KeyDigester
	backend.Eventer
	backend.DownReporter
	backend.Journaler
}

// recorder is a backend with every capability that records which of its
// methods ran.
type recorder struct {
	mu    sync.Mutex
	calls map[string]int
}

func (r *recorder) hit(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.calls == nil {
		r.calls = make(map[string]int)
	}
	r.calls[name]++
}

func (r *recorder) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[name]
}

var recorded = store.Result{
	Key:  store.CellKey{Graph: 1, Matrix: 2, Scheme: "sp", Config: 3},
	Meta: store.Meta{Net: "star-6", Scheme: "sp", Seed: 1, Load: store.DefaultLoad, Locality: 1},
}

func (r *recorder) Lookup(store.CellKey) (store.Result, bool) {
	r.hit("Lookup")
	return store.Result{}, false
}
func (r *recorder) Place(context.Context, store.CellSpec) (store.Result, error) {
	r.hit("Place")
	return recorded, nil
}
func (r *recorder) PlaceSourced(context.Context, store.CellSpec) (store.Result, backend.Source, error) {
	r.hit("PlaceSourced")
	return recorded, backend.SourceComputed, nil
}
func (r *recorder) Query(sweep.Filter) []store.Result { r.hit("Query"); return nil }
func (r *recorder) Stats() backend.Stats              { r.hit("Stats"); return backend.Stats{} }
func (r *recorder) Probe(context.Context) error       { r.hit("Probe"); return nil }
func (r *recorder) QueryContext(context.Context, sweep.Filter) ([]store.Result, error) {
	r.hit("QueryContext")
	return nil, nil
}
func (r *recorder) Put(store.Result) error { r.hit("Put"); return nil }
func (r *recorder) Keys(context.Context) ([]store.CellKey, error) {
	r.hit("Keys")
	return nil, nil
}
func (r *recorder) KeyDigest(context.Context) (store.Digest, int, error) {
	r.hit("KeyDigest")
	return 0, 0, nil
}
func (r *recorder) Events(context.Context, int64, int) ([]obs.Event, error) {
	r.hit("Events")
	return nil, nil
}
func (r *recorder) DownReplicas() []string { r.hit("DownReplicas"); return nil }
func (r *recorder) Journal() *obs.Journal  { r.hit("Journal"); return nil }

// plain is the smallest possible wrapper: embed the base, write Place.
type plain struct{ backend.Forward }

func (p plain) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := p.PlaceSourced(ctx, spec)
	return r, err
}

// TestWrappersForwardEveryCapability is the guard against capability
// drift: every wrapper type in the repository must satisfy every
// optional extension backend.go declares, and a call to each through
// wrapper∘recorder must reach the recorder.
func TestWrappersForwardEveryCapability(t *testing.T) {
	capType := reflect.TypeOf((*capable)(nil)).Elem()

	// The list is complete: every interface backend.go declares (Backend
	// itself is embedded too) has its methods in capable.
	file, err := parser.ParseFile(token.NewFileSet(), "backend.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok {
			return true
		}
		for _, m := range it.Methods.List {
			for _, name := range m.Names {
				if _, ok := capType.MethodByName(name.Name); !ok {
					t.Errorf("backend.go declares %s.%s, which this test's capable list lacks: list %s there and forward it from backend.Forward",
						ts.Name.Name, name.Name, ts.Name.Name)
				}
			}
		}
		return true
	})

	wrappers := map[string]func(backend.Backend) backend.Backend{
		"plain": func(b backend.Backend) backend.Backend { return plain{backend.NewForward(b)} },
		"Predictive": func(b backend.Backend) backend.Backend {
			p := backend.NewPredictive(b, backend.PredictiveOptions{})
			t.Cleanup(func() { p.Close() })
			return p
		},
		"Cached": func(b backend.Backend) backend.Backend { return backend.NewCached(b, backend.CachedOptions{}) },
		// serve's outlive-the-leader wrapper, alone and under the tier the
		// server mounts over it.
		"serve.detached": func(b backend.Backend) backend.Backend {
			return serve.NewBackendServer(b, serve.Options{}).Tier().Inner()
		},
		"serve.Tier": func(b backend.Backend) backend.Backend {
			return serve.NewBackendServer(b, serve.Options{}).Tier()
		},
	}
	args := map[reflect.Type]reflect.Value{
		reflect.TypeOf((*context.Context)(nil)).Elem(): reflect.ValueOf(context.Background()),
		reflect.TypeOf(store.CellSpec{}):               reflect.ValueOf(store.CellSpec{Net: "star-6", Seed: 1, Scheme: "sp", Locality: 1}),
		reflect.TypeOf(store.Result{}):                 reflect.ValueOf(recorded),
	}
	for name, wrap := range wrappers {
		if _, ok := wrap(&recorder{}).(capable); !ok {
			t.Errorf("%s does not satisfy every optional extension", name)
			continue
		}
		for i := 0; i < capType.NumMethod(); i++ {
			m := capType.Method(i)
			// A fresh stack per method: a cache warmed by one call must not
			// answer the next.
			rec := &recorder{}
			fn := reflect.ValueOf(wrap(rec)).MethodByName(m.Name)
			in := make([]reflect.Value, m.Type.NumIn())
			for j := range in {
				if v, ok := args[m.Type.In(j)]; ok {
					in[j] = v
				} else {
					in[j] = reflect.Zero(m.Type.In(j))
				}
			}
			fn.Call(in)
			want := m.Name
			if want == "Place" {
				// Wrappers route Place through PlaceSourced, so provenance
				// survives however the wrapper was called.
				want = "PlaceSourced"
			}
			if rec.count(want) != 1 {
				t.Errorf("%s.%s did not reach the wrapped backend's %s (calls: %v)", name, m.Name, want, rec.calls)
			}
		}
	}
}
