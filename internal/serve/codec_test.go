package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lowlat/internal/backend"
	"lowlat/internal/store"
)

// freshEncode is the encoding writeJSON replaced: a new indenting
// json.Encoder writing straight to the response.
func freshEncode(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return b.Bytes()
}

// TestWriteJSONMatchesFreshEncoder pins the pooled response encoder to a
// fresh indenting json.Encoder, byte for byte, over every response shape
// /v1/place, /v1/cell, /v1/stats and /v1/query answer — twice over, so
// the second pass encodes through buffers the first pass grew, and with
// a listing past maxPooledBuf, whose buffer is not kept. A value that
// does not encode writes no body, as the fresh encoder wrote none.
func TestWriteJSONMatchesFreshEncoder(t *testing.T) {
	st := goldenStore(t)
	s, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{})
	get(t, c, "/v1/query")
	cells := st.Results()

	listing := make([]store.Result, 400)
	for i := range listing {
		listing[i] = cells[i%len(cells)]
		listing[i].Key.Matrix = store.Digest(i)
	}
	if n := len(freshEncode(listing)); n <= maxPooledBuf {
		t.Fatalf("listing encodes to %d bytes, want past maxPooledBuf (%d)", n, maxPooledBuf)
	}
	values := map[string]any{
		"place":   PlaceResponse{Source: string(backend.SourceStore), Result: cells[0]},
		"predict": PlaceResponse{Source: string(backend.SourcePredicted), Predicted: true, Result: cells[1]},
		"cell":    CellResponse{Source: string(backend.SourceCache), Result: cells[2]},
		"stats":   s.Stats(),
		"query":   QueryResponse{Count: len(cells), Results: cells},
		"listing": QueryResponse{Count: len(listing), Results: listing},
		"error":   map[string]string{"error": "bad request body: EOF"},
		"nan":     map[string]float64{"x": math.NaN()},
	}
	for pass := 0; pass < 2; pass++ {
		for _, name := range []string{"listing", "place", "stats", "predict", "cell", "nan", "query", "error"} {
			v := values[name]
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusTeapot, v)
			if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
			}
			if want := freshEncode(v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("pass %d, %s: pooled encoding differs:\n%s\nwant\n%s", pass, name, rec.Body.Bytes(), want)
			}
		}
	}
}

// TestPlaceBodyStatus pins /v1/place's answer to bodies the pooled
// decoder cannot take whole: each keeps the status and the message the
// streaming decoder gave it — a body that is not JSON, or is empty,
// answers 400 with the decoder's error, and a request followed by
// trailing bytes is decoded from its first value and placed.
func TestPlaceBodyStatus(t *testing.T) {
	st := openStore(t)
	_, c := newTestServer(t, backend.NewLocal(st, backend.LocalOptions{Workers: 1}), Options{})
	const req = `{"net":"star-6","seed":1,"scheme":"sp"}`
	for _, body := range []string{
		"",
		"   \n",
		`{"net":`,
		`{"net":"star-6","seed":"one","scheme":"sp"}`,
		"[1,2]",
		"nonsense",
		req + " trailing garbage",
		req + "}",
		req + req,
		"\n" + req + "\n",
	} {
		want, wantMsg := http.StatusOK, ""
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&PlaceRequest{}); err != nil {
			want, wantMsg = http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err)
		}
		resp, err := c.httpClient().Post(c.BaseURL+"/v1/place", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("body %q: status %d, want %d: %s", body, resp.StatusCode, want, got)
		}
		if want != http.StatusOK {
			var e struct{ Error string }
			if err := json.Unmarshal(got, &e); err != nil || e.Error != wantMsg {
				t.Fatalf("body %q: error %q (%v), want %q", body, e.Error, err, wantMsg)
			}
			continue
		}
		var pr PlaceResponse
		if err := json.Unmarshal(got, &pr); err != nil || pr.Result.Meta.Net != "star-6" {
			t.Fatalf("body %q: answer %s (%v)", body, got, err)
		}
	}
}
