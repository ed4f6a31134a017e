package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"accltl/accesscheck/fabric"
	"accltl/accesscheck/server"
)

// Flag defaults of cmd/accserve: the benchmark serves through handlers
// configured exactly as `accserve` and `accserve -coordinator` start.
var (
	accserveWorker = server.Config{
		Workers:       0,
		Parallelism:   0,
		CacheSize:     1024,
		CacheShards:   8,
		DefaultBudget: 5 * time.Second,
	}
	accserveCoordinator = server.CoordinatorConfig{
		Server:          server.Config{DefaultBudget: 5 * time.Second},
		Retries:         2,
		MaxBackoff:      2 * time.Second,
		HedgeAfter:      400 * time.Millisecond,
		Breaker:         fabric.BreakerConfig{Threshold: 3, Cooldown: 5 * time.Second},
		DefaultLeaseTTL: 15 * time.Second,
	}
)

// listener is one in-process handler served on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 30 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop shuts the listener down and waits for its Serve goroutine.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// fleet is the set of servers one workload drives: a single worker, or a
// coordinator fronting two workers.
type fleet struct {
	front   *listener   // where the load goes
	workers []*listener // the solving servers (front itself when single)
	coord   *listener   // nil unless fabric
	// workerURLs are the worker base URLs the coordinator and the replay
	// route shards to: stable host names that hosts resolves to the
	// listeners.
	workerURLs []string
	hosts      map[string]string
	transport  *http.Transport
	client     *http.Client
	// coordTransport carries the coordinator's worker traffic.
	coordTransport *http.Transport
}

// newTransport keeps at most conns connections per host and dials the
// stable worker host names at their loopback listeners.
func newTransport(conns int, hosts map[string]string) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.Proxy = nil
	t.MaxConnsPerHost = conns
	t.MaxIdleConnsPerHost = conns
	var d net.Dialer
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := hosts[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}
	return t
}

func bootSingle(conns int) (*fleet, error) {
	l, err := serve(server.New(accserveWorker))
	if err != nil {
		return nil, err
	}
	tr := newTransport(conns, nil)
	return &fleet{front: l, workers: []*listener{l}, transport: tr, client: &http.Client{Transport: tr}}, nil
}

// bootFabric starts two workers and a coordinator over them. The
// coordinator's affinity ring hashes worker URLs, so the workers are named
// by host names that are the same in every run (worker-0, worker-1) rather
// than by their random loopback ports: with port-derived URLs the ring, and
// with it every request's split of shards between the workers, would
// change from run to run.
func bootFabric(conns int) (*fleet, error) {
	f := &fleet{hosts: map[string]string{}}
	for i := 0; i < 2; i++ {
		l, err := serve(server.New(accserveWorker))
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, l)
		name := fmt.Sprintf("worker-%d", i)
		f.hosts[name+":80"] = strings.TrimPrefix(l.url, "http://")
		f.workerURLs = append(f.workerURLs, "http://"+name)
	}
	cfg := accserveCoordinator
	cfg.Workers = f.workerURLs
	// accserve's coordinator uses a plain http.Client; this one also owns
	// its transport, so close can drop its idle connections, and resolves
	// the worker host names. Connections per worker stay at the default
	// transport's idle limit.
	f.coordTransport = newTransport(0, f.hosts)
	f.coordTransport.MaxIdleConnsPerHost = http.DefaultMaxIdleConnsPerHost
	cfg.Client = &http.Client{Transport: f.coordTransport}
	coord, err := server.NewCoordinator(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	if f.coord, err = serve(coord); err != nil {
		f.close()
		return nil, err
	}
	f.front = f.coord
	f.transport = newTransport(conns, f.hosts)
	f.client = &http.Client{Transport: f.transport}
	return f, nil
}

// close stops every listener and drops idle client connections.
func (f *fleet) close() error {
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	var first error
	if f.coord != nil {
		first = f.coord.stop()
	}
	if f.coordTransport != nil {
		f.coordTransport.CloseIdleConnections()
	}
	for _, w := range f.workers {
		if err := w.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters is one /metrics scrape: series name (with labels) to value.
type counters map[string]float64

func scrape(c *http.Client, base string) (counters, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape reads the whole fleet's /metrics: worker series summed
// across workers, coordinator series under their own names.
func (f *fleet) scrape() (counters, error) {
	out := counters{}
	for _, w := range f.workers {
		c, err := scrape(f.client, w.url)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			out[k] += v
		}
	}
	if f.coord != nil {
		c, err := scrape(f.client, f.coord.url)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			if strings.HasPrefix(k, "accserve_coordinator_") || strings.HasPrefix(k, "accserve_fabric_") {
				out[k] = v
			}
		}
	}
	return out, nil
}

// delta is after minus before for one series.
func delta(before, after counters, name string) float64 { return after[name] - before[name] }
