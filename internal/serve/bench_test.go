package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/store"
)

// BenchmarkServePlace is the ladder's serve rung: one POST /v1/place
// through the whole handler — tracing middleware, body decode, spec
// check, the cache tier, JSON encode — with no socket, on a cell a prior
// request computed. cache_hit repeats one spec (answered by the LRU);
// store_hit alternates two specs on a one-entry LRU, so every request
// falls through to backend.Local's store-hit path.
func BenchmarkServePlace(b *testing.B) {
	for _, bc := range []struct {
		name      string
		specs     int // distinct specs requested round-robin
		cacheSize int
		want      string
	}{
		{"cache_hit", 1, 16, `"source": "cache"`},
		{"store_hit", 2, 1, `"source": "store"`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := store.OpenSharded(b.TempDir(), 1)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			h := NewBackendServer(backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{CacheSize: bc.cacheSize}).Handler()
			bodies := make([][]byte, bc.specs)
			for i := range bodies {
				body, err := json.Marshal(PlaceRequest{Net: "star-6", Seed: int64(i + 1), Scheme: "sp"})
				if err != nil {
					b.Fatal(err)
				}
				bodies[i] = body
			}
			post := func(i int) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(bodies[i])))
				if w.Code != http.StatusOK {
					b.Fatalf("place %d: status %d: %s", i, w.Code, w.Body)
				}
				return w
			}
			// Compute every cell; the last spec is then the most recent, so
			// the round-robin below starts on the least recent one.
			for i := range bodies {
				post(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := post(i % bc.specs)
				if !bytes.Contains(w.Body.Bytes(), []byte(bc.want)) {
					b.Fatalf("iteration %d left the %s path: %s", i, bc.name, w.Body)
				}
			}
		})
	}
}
