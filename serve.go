package lowlat

import (
	"context"
	"net"

	"lowlat/internal/serve"
)

// This file is the serving half of the public facade: the query daemon
// that turns a result store into an always-on HTTP service, and the typed
// client for talking to one. The batch layers fill the store (RunSweep,
// the figure drivers); Serve answers questions about it online and
// computes missing cells on demand.

// ServeOptions tunes a query server's HTTP side: the LRU size, the
// shutdown drain timeout, logging and the SLO objectives. The backend it
// serves is configured where it is built.
type ServeOptions = serve.Options

// ServeClient is the typed client for a running daemon.
type ServeClient = serve.Client

// PlaceRequest asks a daemon for one scenario cell by coordinates.
type PlaceRequest = serve.PlaceRequest

// Serve mounts the store at addr and serves until ctx is cancelled, then
// drains in-flight requests and returns. notify, when non-nil, receives
// the bound address before serving starts (how callers learn the port
// when addr ends in ":0").
func Serve(ctx context.Context, st *ResultStore, addr string, opts ServeOptions, notify func(net.Addr)) error {
	return serve.New(st, opts).ListenAndServe(ctx, addr, notify)
}

// NewServeClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewServeClient(baseURL string) *ServeClient { return serve.NewClient(baseURL) }
