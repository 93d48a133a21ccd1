package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"pfcache/internal/front"
	"pfcache/internal/service"
)

// Service configuration of every server the benchmark builds.  The shard
// count is fixed rather than one per CPU so that instance-to-shard placement,
// and with it every warm-start count, is the same on any machine.
const (
	serverShards  = 2
	directCache   = 1024 // pcserve's default response cache
	fleetBackends = 3
)

// target is the system under test: the handler the client calls and the
// servers behind it.
type target struct {
	root    http.Handler
	servers []*service.Server
	front   *front.Front
	// spans collects each backend's ServeHTTP spans (front-mix only).
	spans *spanLog
	stop  func()
}

// newDirect serves ops straight into one server's ServeHTTP.
func newDirect() *target {
	srv := service.NewServer(service.Options{Shards: serverShards, CacheEntries: directCache})
	return &target{root: srv, servers: []*service.Server{srv}, stop: srv.Close}
}

// backendName is the fixed ring identity of backend i.  The front's ring
// places keys by backend name, so names must not follow the listeners'
// random ports; the front's dialer maps them onto the loopback listeners.
func backendName(i int) string { return fmt.Sprintf("http://backend-%d", i) }

// backendIndex is the inverse of backendName (-1 when unknown).
func backendIndex(name string) int {
	for i := range fleetBackends {
		if backendName(i) == name {
			return i
		}
	}
	return -1
}

// newFleet starts fleetBackends servers on loopback TCP and a front over
// them.  The front's health checker is slowed to one probe per hour: its
// first probe runs during set-up, and no probe lands inside a run.
func newFleet() (*target, error) {
	tg := &target{spans: &spanLog{}}
	addrs := make(map[string]string)
	var https []*http.Server
	var listeners []net.Listener
	stopServers := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, h := range https {
			h.Shutdown(ctx)
		}
		for _, ln := range listeners {
			ln.Close()
		}
		for _, s := range tg.servers {
			s.Close()
		}
	}
	var serving sync.WaitGroup
	for i := range fleetBackends {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stopServers()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		listeners = append(listeners, ln)
		srv := service.NewServer(service.Options{Shards: serverShards, CacheEntries: frontCacheEntries})
		tg.servers = append(tg.servers, srv)
		h := &http.Server{Handler: &spanHandler{next: srv, log: tg.spans, backend: i}}
		https = append(https, h)
		addrs[strings.TrimPrefix(backendName(i), "http://")+":80"] = ln.Addr().String()
		serving.Add(1)
		go func() {
			defer serving.Done()
			h.Serve(ln)
		}()
	}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("no backend at %s", addr)
			}
			var d net.Dialer
			return d.DialContext(ctx, network, real)
		},
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}
	names := make([]string, fleetBackends)
	for i := range names {
		names[i] = backendName(i)
	}
	f, err := front.New(front.Options{Backends: names, Client: &http.Client{Transport: transport},
		HealthInterval: time.Hour})
	if err != nil {
		stopServers()
		serving.Wait()
		return nil, err
	}
	tg.root, tg.front = f, f
	tg.stop = func() {
		f.Close()
		transport.CloseIdleConnections()
		stopServers()
		serving.Wait()
	}
	return tg, nil
}

// span is one backend ServeHTTP call: its duration and the bytes the
// process allocated meanwhile.
type span struct {
	backend int
	dur     time.Duration
	alloc   uint64
}

// spanLog holds the backend spans of the op in flight.  With one client at
// most one request is in flight, so every span nests in the current op's
// front span.
type spanLog struct {
	mu    sync.Mutex
	on    bool
	spans []span
}

// take returns and clears the recorded spans.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

func (l *spanLog) enabled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.on
}

func (l *spanLog) enable() {
	l.mu.Lock()
	l.on = true
	l.mu.Unlock()
}

// spanHandler wraps a backend's handler and, when its log is enabled,
// records a span around every API call (health probes excluded).
type spanHandler struct {
	next    http.Handler
	log     *spanLog
	backend int
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") || !h.log.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	h.log.mu.Lock()
	h.log.spans = append(h.log.spans, span{backend: h.backend, dur: d, alloc: m1.TotalAlloc - m0.TotalAlloc})
	h.log.mu.Unlock()
}

// newTarget builds the target a workload runs against.
func newTarget(w *workload) (*target, error) {
	if w.front {
		return newFleet()
	}
	return newDirect(), nil
}
