package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Client is a typed client for a running daemon, mirroring the server's
// endpoints one method each. The zero HTTPClient means
// http.DefaultClient.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (timeouts, test servers).
	HTTPClient *http.Client
}

// NewClient returns a Client for the daemon at baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

// StatusError is a non-2xx daemon response: the HTTP status code plus the
// server's error message. Callers distinguish backpressure
// (http.StatusTooManyRequests) from hard failures through Code.
type StatusError struct {
	Code    int
	Message string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes a 2xx JSON body into out. When the
// request context carries a trace, its ID travels on X-Request-ID, so
// the downstream daemon logs the same request ID as this hop's caller.
func (c *Client) do(req *http.Request, out any) error {
	if id := obs.RequestIDFrom(req.Context()); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<26))
	if err != nil {
		return fmt.Errorf("serve: read response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(bytes.TrimSpace(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("serve: decode response: %w", err)
	}
	return nil
}

func (c *Client) get(ctx context.Context, path string, query url.Values, out any) error {
	u := c.BaseURL + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return c.do(req, out)
}

// filterValues renders a sweep.Filter as the query parameters the server
// parses back with the same presence semantics.
func filterValues(f sweep.Filter) url.Values {
	q := url.Values{}
	if f.Net != "" {
		q.Set("net", f.Net)
	}
	if f.Class != "" {
		q.Set("class", f.Class)
	}
	if f.Scheme != "" {
		q.Set("scheme", f.Scheme)
	}
	if f.Seed != nil {
		q.Set("seed", strconv.FormatInt(*f.Seed, 10))
	}
	if f.Headroom != nil {
		q.Set("headroom", strconv.FormatFloat(*f.Headroom, 'g', -1, 64))
	}
	return q
}

// Query lists stored cells matching the filter.
func (c *Client) Query(ctx context.Context, f sweep.Filter) ([]store.Result, error) {
	var out QueryResponse
	if err := c.get(ctx, "/v1/query", filterValues(f), &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Cell looks one cell up by its canonical key string.
func (c *Client) Cell(ctx context.Context, key string) (store.Result, error) {
	q := url.Values{}
	q.Set("key", key)
	var out CellResponse
	if err := c.get(ctx, "/v1/cell", q, &out); err != nil {
		return store.Result{}, err
	}
	return out.Result, nil
}

// Summary fetches the per-class CDF aggregate for the filter slice.
// points <= 0 takes the server default.
func (c *Client) Summary(ctx context.Context, f sweep.Filter, points int) (*Summary, error) {
	q := filterValues(f)
	if points > 0 {
		q.Set("points", strconv.Itoa(points))
	}
	var out Summary
	if err := c.get(ctx, "/v1/summary", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Place asks the daemon for one cell, computing it if no run has stored
// it yet. A *StatusError with Code 429 means the daemon's computation
// limit is reached — retry later.
func (c *Client) Place(ctx context.Context, preq PlaceRequest) (*PlaceResponse, error) {
	body, err := json.Marshal(preq)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/place", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	var out PlaceResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Replicate pushes one already-computed cell to the daemon in its
// canonical wire form — the write path cluster replication and healing
// ride. A 403 StatusError means the daemon's backend accepts no writes.
func (c *Client) Replicate(ctx context.Context, r store.Result) error {
	body, err := store.MarshalResult(r)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/replicate", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, nil)
}

// Digest fetches the daemon's key inventory summary; withKeys asks for
// the full canonical key list too.
func (c *Client) Digest(ctx context.Context, withKeys bool) (*DigestResponse, error) {
	q := url.Values{}
	if withKeys {
		q.Set("keys", "1")
	}
	var out DigestResponse
	if err := c.get(ctx, "/v1/digest", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil, nil)
}

// HealthReport fetches the daemon's readiness evaluation — SLO states,
// burn rates, down replicas. A critical daemon answers 503 carrying the
// same JSON body; that decodes into a report here rather than an error,
// so callers read Status instead of branching on the status code.
func (c *Client) HealthReport(ctx context.Context) (*HealthReport, error) {
	var out HealthReport
	if err := c.get(ctx, "/v1/health", nil, &out); err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusServiceUnavailable &&
			json.Unmarshal([]byte(se.Message), &out) == nil && out.Status != "" {
			return &out, nil
		}
		return nil, err
	}
	return &out, nil
}

// Events fetches the daemon's state-transition journal after the cursor.
// limit <= 0 asks for everything retained.
func (c *Client) Events(ctx context.Context, since int64, limit int) (*EventsResponse, error) {
	q := url.Values{}
	if since > 0 {
		q.Set("since", strconv.FormatInt(since, 10))
	}
	if limit < 0 {
		limit = 0
	}
	q.Set("limit", strconv.Itoa(limit))
	var out EventsResponse
	if err := c.get(ctx, "/v1/events", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Watch subscribes to the daemon's /v1/watch stream, invoking fn for
// each snapshot until ctx ends, fn returns an error, or the stream
// breaks. interval <= 0 takes the server's default period. A cancelled
// context reads as a clean stop (nil).
func (c *Client) Watch(ctx context.Context, interval time.Duration, fn func(WatchEvent) error) error {
	u := c.BaseURL + "/v1/watch"
	if interval > 0 {
		q := url.Values{}
		q.Set("interval", interval.String())
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return &StatusError{Code: resp.StatusCode, Message: string(bytes.TrimSpace(body))}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // event: lines, keepalives, blank separators
		}
		var ev WatchEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("serve: decode watch event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("serve: watch stream: %w", err)
	}
	return nil
}

// Stats fetches the daemon's counters.
func (c *Client) Stats(ctx context.Context) (*backend.Stats, error) {
	var out backend.Stats
	if err := c.get(ctx, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
