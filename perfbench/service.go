package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mixnet/internal/serve"
)

// service is one what-if service instance on a loopback listener plus the
// single closed-loop client that queries it.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{} // closed when the HTTP server's accept loop has returned
	tr   *http.Transport
	hc   *http.Client
	base string
}

// poolUses is how many leases a pooled engine serves before the service
// retires it (mixnet-serve -pool-uses). A MixNet engine grows with every
// lease it serves, and its answers get dearer as it does, until retirement
// starts the cycle again. At the default of 1024 one cycle outlasts a whole
// run, so a run's figures would depend on how far into the cycle it got; at
// 64 a run spans many cycles and measures their average.
const poolUses = 64

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Pool: serve.NewPool(0, poolUses, 0)})
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		tr:   &http.Transport{},
		base: "http://" + ln.Addr().String(),
	}
	s.hc = &http.Client{Transport: s.tr}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // always http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

// stop closes the listener and every connection, then waits for the accept
// loop and all query workers to finish.
func (s *service) stop() {
	s.tr.CloseIdleConnections()
	_ = s.hs.Close() // the only error is the listener's close error, which changes nothing here
	<-s.done
	s.srv.Drain()
}

// answer is one service response as the client sees it.
type answer struct {
	result []byte        // the response's result field, byte for byte
	exec   float64       // server-reported execution seconds (meta.elapsed_sec)
	total  time.Duration // request encode, round trip and response decode
}

// ask sends q to the endpoint its kind selects and decodes the envelope.
func (s *service) ask(q question) (answer, error) {
	path := "/v1/iter"
	if q.Scenario != "" {
		path = "/v1/failure"
	}
	t0 := time.Now()
	body, err := json.Marshal(q)
	if err != nil {
		return answer{}, err
	}
	resp, err := s.hc.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		Meta   struct {
			ElapsedSec float64 `json:"elapsed_sec"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return answer{}, fmt.Errorf("%s: decode response: %w", path, err)
	}
	return answer{result: env.Result, exec: env.Meta.ElapsedSec, total: time.Since(t0)}, nil
}

// hitMiss is one cache's counters in the service's /v1/stats payload.
type hitMiss struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// ratioSince is the share of hits among the lookups made since before.
func (h hitMiss) ratioSince(before hitMiss) float64 {
	hits, misses := h.Hits-before.Hits, h.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

type serviceStats struct {
	Pool        hitMiss `json:"pool"`
	Memo        hitMiss `json:"memo"`
	ResultCache hitMiss `json:"result_cache"`
}

func (s *service) stats() (serviceStats, error) {
	var st serviceStats
	resp, err := s.hc.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	return st, nil
}
