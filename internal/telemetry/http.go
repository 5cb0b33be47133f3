package telemetry

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

// The live inspection endpoint: /metrics renders the registry's JSON
// snapshot, /debug/vars the expvar view of the same registry, and
// /debug/pprof/* the standard Go profiler — so a stalled fleet can be
// profiled in place without rebuilding.

// expvar registration is process-global and panics on duplicate names,
// so the package publishes one Func that follows the most recently
// served registry.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

func publishExpvar(reg *Registry) {
	expvarReg.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			if r := expvarReg.Load(); r != nil {
				return r.Snapshot()
			}
			return nil
		}))
	})
}

// Server is a live telemetry listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (with the real port when addr
// requested :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains the server gracefully: the listener closes
// immediately (no new scrapes), in-flight requests — a scraper
// mid-/metrics, a profiler holding /debug/pprof/profile open — run to
// completion, then idle keep-alive connections are closed. ctx bounds
// the wait; on expiry the remaining connections are cut and ctx's
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// The deadline passed with requests still in flight: cut them so
		// the caller's teardown is bounded either way.
		s.srv.Close()
	}
	return err
}
