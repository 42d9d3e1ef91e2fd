package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/serve"
)

// servedModels is what a default-flag inspire-serve loads; set-up is over
// when /v1/models lists both.
var servedModels = []string{"lenet5", "squeezenet"}

// listenPrefix is the stdout line both inspire-serve and the traced server
// print once the listener is bound.
const listenPrefix = "inspire-serve: listening on "

// syncBuffer collects a child's stdout and stderr, which arrive on two
// goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// child is one running server process.
type child struct {
	cmd    *exec.Cmd
	url    string
	setup  time.Duration // exec → first /v1/models listing every served model
	client *http.Client  // control-plane client (never used for measured predicts)
	output *syncBuffer   // everything the process printed, for error reports
	done   chan error    // closed-over result of cmd.Wait
}

// bootServer starts bin with args on an ephemeral port and blocks until the
// server lists every served model. The only non-default flag is the listen
// address.
func bootServer(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{
		cmd:    cmd,
		client: &http.Client{Timeout: 60 * time.Second},
		output: new(syncBuffer),
		done:   make(chan error, 1),
	}
	cmd.Stderr = c.output
	// Should the harness die without stopping it, the server must not
	// outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}

	// One goroutine owns stdout for the life of the process: it hands the
	// bound address over once and keeps draining so the child never blocks
	// on a full pipe. cmd.Wait runs after the pipe hits EOF, as os/exec
	// requires.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			io.WriteString(c.output, line+"\n")
			if strings.HasPrefix(line, listenPrefix) {
				select {
				case addrCh <- strings.TrimPrefix(line, listenPrefix):
				default:
				}
			}
		}
		close(addrCh)
		c.done <- cmd.Wait()
	}()

	select {
	case addr, ok := <-addrCh:
		if !ok {
			return nil, fmt.Errorf("%s exited before listening:\n%s", bin, c.output)
		}
		c.url = "http://" + addr
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s did not listen within 60s:\n%s", bin, c.output)
	}
	var listing struct {
		Models []serve.ModelInfo `json:"models"`
	}
	if err := c.getJSON("/v1/models", &listing); err != nil {
		c.kill()
		return nil, err
	}
	c.setup = time.Since(start)
	have := make(map[string]bool)
	for _, m := range listing.Models {
		have[m.Name] = true
	}
	for _, m := range servedModels {
		if !have[m] {
			c.kill()
			return nil, fmt.Errorf("server does not list model %s", m)
		}
	}
	return c, nil
}

func (c *child) getJSON(path string, v any) error {
	resp, err := c.client.Get(c.url + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: decoding: %w", path, err)
	}
	return nil
}

// swap posts one hot swap and returns its wall time and the version now
// serving.
func (c *child) swap(model string, seed uint64) (time.Duration, int64, error) {
	body := fmt.Sprintf(`{"seed":%d}`, seed)
	start := time.Now()
	resp, err := c.client.Post(c.url+"/v1/models/"+model+"/versions", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, 0, fmt.Errorf("swap %s seed %d: %w", model, seed, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("swap %s seed %d: %w", model, seed, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("swap %s seed %d: status %d: %s", model, seed, resp.StatusCode, raw)
	}
	var v struct {
		Version int64  `json:"version"`
		Seed    uint64 `json:"seed"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, 0, fmt.Errorf("swap %s seed %d: decoding: %w", model, seed, err)
	}
	if v.Seed != seed {
		return 0, 0, fmt.Errorf("swap %s: server reports seed %d, sent %d", model, v.Seed, seed)
	}
	return took, v.Version, nil
}

// snapshot reads the server's own counters.
func (c *child) snapshot() (metrics.Snapshot, error) {
	var s metrics.Snapshot
	err := c.getJSON("/metrics", &s)
	return s, err
}

// residency reads the registry's resident-byte report.
func (c *child) residency() ([]registry.ModelResidency, error) {
	var r struct {
		Models []registry.ModelResidency `json:"models"`
	}
	err := c.getJSON("/v1/registry", &r)
	return r.Models, err
}

// peakRSS reads the process's high-water resident set from /proc, in bytes.
func (c *child) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
				}
				return kb << 10, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// stop asks the server to drain (SIGTERM) and waits for it to exit; a server
// that does not exit within 15 s is killed. Any other non-zero exit is an
// error: the server is expected to drain cleanly.
//
// inspire-serve installs its SIGTERM handler after it starts serving, so a
// server stopped right after its first reply — a throw-away boot — can die of
// the signal itself. It had nothing in flight, so that too is a clean stop.
func (c *child) stop() error {
	c.client.CloseIdleConnections()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return fmt.Errorf("signalling server: %w", err)
	}
	select {
	case err := <-c.done:
		if err != nil && !terminatedBy(err, syscall.SIGTERM) {
			return fmt.Errorf("server exit: %w\n%s", err, c.output)
		}
		return nil
	case <-time.After(15 * time.Second):
		c.kill()
		return fmt.Errorf("server did not drain within 15s:\n%s", c.output)
	}
}

// terminatedBy reports whether err is cmd.Wait's report of a process that
// died of sig.
func terminatedBy(err error, sig syscall.Signal) bool {
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		return false
	}
	ws, ok := exit.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// kill ends the process immediately and reaps it.
func (c *child) kill() {
	c.client.CloseIdleConnections()
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
}
