package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dfg/internal/frontier"
)

// workerHost runs one analysis backend and reports the process it runs in.
type workerHost interface {
	addr() string
	stop()
}

// deployment is one running sharded deployment: dfg-serve in frontier mode
// with -replicas 2 over two workers, each with its own on-disk store.
type deployment struct {
	base    string // http://host:port of dfg-serve
	serve   *exec.Cmd
	workers []workerHost
}

// launchFunc starts the i-th worker with its store under dir.
type launchFunc func(ctx context.Context, i int, dir string) (workerHost, error)

// startDeployment launches the workers, then dfg-serve in front of them,
// and returns once dfg-serve answers /healthz.
func startDeployment(ctx context.Context, binDir, dir string, launch launchFunc) (*deployment, error) {
	d := &deployment{}
	var backends []string
	for i := 0; i < 2; i++ {
		w, err := launch(ctx, i, filepath.Join(dir, fmt.Sprintf("w%d", i+1)))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.workers = append(d.workers, w)
		backends = append(backends, fmt.Sprintf("w%d=%s", i+1, w.addr()))
	}
	addr, err := freeAddr()
	if err != nil {
		d.stop()
		return nil, err
	}
	d.serve, err = startProcess(filepath.Join(binDir, "dfg-serve"), filepath.Join(dir, "serve.log"),
		"-addr", addr, "-backends", strings.Join(backends, ","), "-replicas", "2")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.base = "http://" + addr
	if err := waitHTTP(ctx, d.base+"/healthz"); err != nil {
		d.stop()
		return nil, fmt.Errorf("dfg-serve did not come up: %w (log: %s)", err, filepath.Join(dir, "serve.log"))
	}
	return d, nil
}

// stop ends every process of the deployment and waits for each.
func (d *deployment) stop() {
	if d.serve != nil {
		stopProcess(d.serve)
		d.serve = nil
	}
	for _, w := range d.workers {
		w.stop()
	}
	d.workers = nil
}

// pids lists the deployment's processes for /proc sampling ("self" stands
// for workers hosted in this process).
func (d *deployment) pids() []string {
	out := []string{strconv.Itoa(d.serve.Process.Pid)}
	seen := map[string]bool{}
	for _, w := range d.workers {
		p := "self"
		if pw, ok := w.(*procWorker); ok {
			p = strconv.Itoa(pw.cmd.Process.Pid)
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// frontierCounters are the /statsz routing counters the benchmark reports.
type frontierCounters struct {
	Retries, RoutedErr, Dials, ReplPushed, ReadRepairs int64
}

func (a frontierCounters) minus(b frontierCounters) frontierCounters {
	return frontierCounters{
		Retries:     a.Retries - b.Retries,
		RoutedErr:   a.RoutedErr - b.RoutedErr,
		Dials:       a.Dials - b.Dials,
		ReplPushed:  a.ReplPushed - b.ReplPushed,
		ReadRepairs: a.ReadRepairs - b.ReadRepairs,
	}
}

// statsz fetches dfg-serve's frontier counters, summing dials over backends.
func (d *deployment) statsz(ctx context.Context) (frontierCounters, error) {
	var body struct {
		Frontier *frontier.Stats `json:"frontier"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/statsz", nil)
	if err != nil {
		return frontierCounters{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return frontierCounters{}, fmt.Errorf("GET /statsz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return frontierCounters{}, fmt.Errorf("decode /statsz: %w", err)
	}
	fs := body.Frontier
	if fs == nil {
		return frontierCounters{}, errors.New("/statsz has no frontier section")
	}
	c := frontierCounters{Retries: fs.Retries, RoutedErr: fs.RoutedErr, ReplPushed: fs.ReplPushed, ReadRepairs: fs.ReadRepairs}
	for _, b := range fs.Backends {
		c.Dials += b.Dials
	}
	return c, nil
}

// procWorker is a dfg-worker process with default flags (fsync on).
type procWorker struct {
	cmd  *exec.Cmd
	host string
}

func (w *procWorker) addr() string { return w.host }
func (w *procWorker) stop()        { stopProcess(w.cmd) }

// launchProcWorker starts the dfg-worker binary found in binDir.
func launchProcWorker(binDir string) launchFunc {
	return func(ctx context.Context, i int, dir string) (workerHost, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cmd, err := startProcess(filepath.Join(binDir, "dfg-worker"), dir+".log",
			"-addr", addr, "-store", filepath.Join(dir, "store"))
		if err != nil {
			return nil, err
		}
		if err := waitTCP(ctx, addr); err != nil {
			stopProcess(cmd)
			return nil, fmt.Errorf("dfg-worker did not come up: %w (log: %s.log)", err, dir)
		}
		return &procWorker{cmd: cmd, host: addr}, nil
	}
}

// startProcess starts bin with its output in logPath. The child is killed
// if this process dies first.
func startProcess(bin, logPath string, args ...string) (*exec.Cmd, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	return cmd, nil
}

// stopProcess asks cmd to drain with SIGTERM, kills it after 10s, and
// waits for it to exit.
func stopProcess(cmd *exec.Cmd) {
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// freeAddr returns a loopback address with a port nothing listens on now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func waitTCP(ctx context.Context, addr string) error {
	return poll(ctx, func() error {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
		}
		return err
	})
}

func waitHTTP(ctx context.Context, url string) error {
	return poll(ctx, func() error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", url, resp.Status)
		}
		return nil
	})
}

// poll retries check every 5ms for up to 20s.
func poll(ctx context.Context, check func() error) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		err := check()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
