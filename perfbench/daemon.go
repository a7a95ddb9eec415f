package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/server"
)

// Request headers the benchmark's handler wrapper reads and strips before
// the daemon's handler runs, so the program never sees them.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

// serverConfig is the configuration cmd/postcard-server builds from its
// default flags (-q 100 -period 100, manual slot clock, republisher on,
// no snapshot, drain by commit). Log lines are formatted as the binary
// formats them and then discarded.
func serverConfig(nw *netmodel.Network) server.Config {
	return server.Config{
		Network:  nw,
		Charging: netmodel.Charging{Q: 100, PeriodSlots: 100},
		Logf:     log.New(io.Discard, "", log.LstdFlags).Printf,
	}
}

// warmupFile is the transfer each timed set-up admits and commits, so that
// set-up includes the daemon's lazy work: its solver's first model and LP.
var warmupFile = netmodel.File{Src: 0, Dst: 1, Size: 50, Deadline: 2}

// timeSetups measures reps cold starts of a daemon, each up to its first
// committed plan, in CPU seconds, and shuts each down. The measured run gets
// a daemon of its own, so it starts cold as the shipped daemon does.
func timeSetups(reps int, start func() (*daemon, error)) ([]float64, error) {
	secs := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		cpu0 := cpuTime()
		d, err := start()
		if err != nil {
			return nil, err
		}
		_, resp, err := d.admit(warmupFile, 0, 0)
		if err == nil && !resp.Admitted {
			err = fmt.Errorf("warm-up transfer rejected")
		}
		if err == nil {
			_, _, err = d.advance(0, 0)
		}
		secs = append(secs, (cpuTime() - cpu0).Seconds())
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return secs, nil
}

// daemon is one in-process postcard-server behind a real loopback TCP
// listener, with a client limited to a fixed number of connections.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	tr     *tracer
}

func startDaemon(cfg server.Config, conns int, tr *tracer) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	h := srv.Handler()
	if tr != nil {
		h = &tracedHandler{next: h, tr: tr}
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		served: make(chan error, 1),
		tr:     tr,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	var st server.Status
	if _, err := d.getJSON("/v1/status", &st, 0, 0); err != nil {
		d.close()
		return nil, fmt.Errorf("daemon not ready: %w", err)
	}
	return d, nil
}

// close shuts the listener down, drains the server and waits for the
// serving goroutine to return.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if cerr := d.srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// call sends one request and returns the status code and body. parent and
// req label the handler's span in a traced run.
func (d *daemon) call(method, path string, body []byte, parent, req int64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if d.tr != nil {
		hr.Header.Set(hdrSpan, strconv.FormatInt(parent, 10))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	resp, err := d.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading %s %s: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// getJSON fetches path and decodes a 200 answer into v.
func (d *daemon) getJSON(path string, v any, parent, req int64) (int, error) {
	code, body, err := d.call(http.MethodGet, path, nil, parent, req)
	if err != nil {
		return code, err
	}
	if code != http.StatusOK {
		return code, fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(body))
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return code, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return code, nil
}

// admit posts one transfer. A 422 rejection is an answer, not an error.
func (d *daemon) admit(f netmodel.File, parent, req int64) (int, *server.TransferResponse, error) {
	body, err := json.Marshal(server.TransferRequest{
		Src: int(f.Src), Dst: int(f.Dst), SizeGB: f.Size, Deadline: f.Deadline,
	})
	if err != nil {
		return 0, nil, err
	}
	code, out, err := d.call(http.MethodPost, "/v1/transfers", body, parent, req)
	if err != nil {
		return code, nil, err
	}
	if code != http.StatusOK && code != http.StatusUnprocessableEntity {
		return code, nil, fmt.Errorf("POST /v1/transfers: status %d: %s", code, bytes.TrimSpace(out))
	}
	var resp server.TransferResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return code, nil, fmt.Errorf("POST /v1/transfers: %w", err)
	}
	if resp.Admitted != (code == http.StatusOK) {
		return code, nil, fmt.Errorf("POST /v1/transfers: status %d with admitted=%v", code, resp.Admitted)
	}
	return code, &resp, nil
}

// advance closes the open slot and returns the new slot number.
func (d *daemon) advance(parent, req int64) (int, int, error) {
	code, out, err := d.call(http.MethodPost, "/v1/slots/advance", nil, parent, req)
	if err != nil {
		return code, 0, err
	}
	if code != http.StatusOK {
		return code, 0, fmt.Errorf("POST /v1/slots/advance: status %d: %s", code, bytes.TrimSpace(out))
	}
	var resp struct {
		Slot int `json:"slot"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return code, 0, fmt.Errorf("POST /v1/slots/advance: %w", err)
	}
	return code, resp.Slot, nil
}

// tracedHandler times the daemon's handler for each request and records it
// as a child of the client's span.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	r.Header.Del(hdrSpan)
	r.Header.Del(hdrReq)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.add(routeSpan(r), parent, req, start, time.Now())
}

// routeSpan names the handler span by the kind of request it served.
func routeSpan(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/transfers":
		return "http.admit"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/slots/advance":
		return "http.advance"
	default:
		return "http.read"
	}
}
