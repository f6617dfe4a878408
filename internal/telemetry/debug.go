package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// published holds the Func each Publish name currently serves.
var (
	publishedMu sync.Mutex
	published   = map[string]expvar.Func{}
)

// Publish serves f as the process's expvar name, replacing whatever an
// earlier Publish of the same name served. Tests and embedders create many
// meters and coordinators, but expvar.Publish panics on a duplicate name, so
// each name is registered once, with a Func that calls the latest f. The
// registration happens outside publishedMu: /debug/vars calls that Func
// while holding expvar's own lock.
func Publish(name string, f expvar.Func) {
	publishedMu.Lock()
	_, registered := published[name]
	published[name] = f
	publishedMu.Unlock()
	if !registered {
		expvar.Publish(name, expvar.Func(func() any {
			publishedMu.Lock()
			cur := published[name]
			publishedMu.Unlock()
			return cur()
		}))
	}
}

// DebugServer starts an HTTP debug endpoint on addr serving expvar
// metrics (/debug/vars, including everything Publish serves) and the standard
// pprof handlers (/debug/pprof/...). It returns the bound address (useful
// with ":0") and a shutdown function. The server runs on its own
// goroutine and never touches simulation state, so it cannot perturb
// determinism.
func DebugServer(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	close := func() error {
		return srv.Close()
	}
	return ln.Addr().String(), close, nil
}
