package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"lowlat/internal/reuse"
)

// maxBody bounds what a handler reads of a request body.
const maxBody = 1 << 20

// codecBuf is one request's or response's body memory, kept between
// requests: the bytes, and the indenting encoder that writes into them
// with its own indent buffer.
type codecBuf struct {
	buf bytes.Buffer
	enc *json.Encoder // into buf; made on the first response encoded
}

// codecBufs holds the idle codecBufs of every handler.
var codecBufs reuse.List[codecBuf]

// maxPooledBuf is the largest body whose memory goes back to codecBufs:
// a place answer is a few KiB, while a /v1/query listing of a whole
// store can run to megabytes that no later request needs kept.
const maxPooledBuf = 64 << 10

func getCodecBuf() *codecBuf {
	c := codecBufs.Get()
	c.buf.Reset()
	return c
}

func putCodecBuf(c *codecBuf) {
	if c.buf.Cap() <= maxPooledBuf {
		codecBufs.Put(c)
	}
}

// writeJSON encodes v indented, with a trailing newline (curl-friendly),
// and writes it in one piece, as a json.Encoder over w would.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	c := getCodecBuf()
	defer putCodecBuf(c)
	if c.enc == nil {
		c.enc = json.NewEncoder(&c.buf)
		c.enc.SetIndent("", "  ")
	}
	// An encode failure writes nothing; the status is already committed,
	// so there is nothing useful left to report.
	if c.enc.Encode(v) == nil {
		_, _ = w.Write(c.buf.Bytes())
	}
}

// decodeBody decodes the first maxBody bytes of a JSON request body into
// v. A body json.Unmarshal takes whole decodes from the pooled bytes; any
// other goes to a streaming json.Decoder, which decodes the first value
// and ignores what follows it. So a request followed by trailing bytes
// is still served, and an empty or malformed body fails with the
// decoder's error (io.EOF for an empty one), as a streaming decode of
// the request body would.
func decodeBody[T any](body io.Reader, v *T) error {
	c := getCodecBuf()
	defer putCodecBuf(c)
	if _, err := c.buf.ReadFrom(io.LimitReader(body, maxBody)); err != nil {
		return err
	}
	if json.Unmarshal(c.buf.Bytes(), v) == nil {
		return nil
	}
	*v = *new(T)
	return json.NewDecoder(bytes.NewReader(c.buf.Bytes())).Decode(v)
}
