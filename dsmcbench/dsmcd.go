package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dsmc"
	"dsmc/internal/obs"
)

// server is a dsmcd child process.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:<port>
	exited chan struct{} // closed once the process has been waited for
}

// startServer starts dsmcd on a free local port with a fresh data
// directory and returns once /healthz answers 200, with the time from
// process start to that answer.
func startServer(ctx context.Context, bin, dataDir, logPath string) (*server, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir, "-pool", fmt.Sprint(numWorkers))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting dsmcd: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("dsmcd exited before /healthz answered (log: %s)", logPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(250 * time.Microsecond):
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, errors.New("dsmcd did not answer /healthz within 60 s")
		}
	}
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within 20 s, and returns once the process is gone.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape reads the server's /metrics.
func (s *server) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// served is what one client observed of one sweep.
type served struct {
	events  *sweepEvents
	sub     time.Time // POST answered
	evEnd   time.Time // event stream ended
	res     time.Time // result body received
	body    []byte
	status  [4]int    // POST, events, result, conditional GET
	lastJob time.Time // last replica job-done arrival
	err     error
}

func runDsmcd(ctx context.Context, e *env) error {
	if e.cfg.dsmcd == "" {
		return errors.New("no dsmcd binary given (-dsmcd)")
	}
	n := scaled(e.cfg, 8, 100)
	base := dsmc.WedgeTunnel2D{
		GridNX: 24, GridNY: 16,
		Wedge: dsmc.WedgeSpec{LeadX: 6, Base: 10, AngleDeg: 30},
		Mach:  4, ThermalSpeed: 0.125, MeanFreePath: 0.5,
		ParticlesPerCell: 8, Seed: derive(e.cfg.seed, 5),
	}
	warm, sample := 100, 50
	if e.cfg.tiny {
		n = 6
	}
	two := func(int) int { return 2 }
	plans := genSweeps(derive(e.cfg.seed, 6), n, two, two, 4)
	specs := make([][]byte, n)
	for j, p := range plans {
		spec, err := p.spec(base, warm, sample)
		if err != nil {
			return err
		}
		if specs[j], err = json.Marshal(spec); err != nil {
			return err
		}
	}

	// setup_s is the median of server starts made before the closed
	// loop (the last server serves it) and after it. A start takes
	// milliseconds, so there are more of them than simulation builds.
	const starts = 8
	var srv *server
	defer func() { srv.stop() }()
	var setups []float64
	start := func(i int) error {
		srv.stop()
		sp := e.tr.begin("dsmcd.start", 1)
		s, d, err := startServer(ctx, e.cfg.dsmcd, filepath.Join(e.dir, fmt.Sprintf("data-%d", i)),
			filepath.Join(e.dir, fmt.Sprintf("dsmcd-%d.log", i)))
		e.tr.finish(sp)
		srv = s
		setups = append(setups, d)
		return err
	}
	for i := 0; i < starts; i++ {
		if err := start(i); err != nil {
			return err
		}
	}
	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	m0, err := srv.scrape(scrapeClient)
	if err != nil {
		return err
	}

	// Closed loop: two clients, each on its own connection, take the
	// next sweep of the sequence once their previous one is done. A
	// sweep that reuses replicas waits until the sweeps computing them
	// have finished, so the share served from the store is fixed.
	out := make([]served, n)
	done := make([]chan struct{}, n)
	for j := range done {
		done[j] = make(chan struct{})
	}
	var next atomic.Int64
	loopStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < numWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				for _, k := range plans[j].deps {
					select {
					case <-done[k]:
					case <-ctx.Done():
					}
				}
				if ctx.Err() == nil {
					out[j] = serveSweep(ctx, e.tr, client, srv.base, plans[j].name, specs[j])
				} else {
					out[j].err = ctx.Err()
				}
				close(done[j])
			}
		}()
	}
	wg.Wait()
	loopWall := time.Since(loopStart).Seconds()
	if err := ctx.Err(); err != nil {
		return err
	}
	m1, err := srv.scrape(scrapeClient)
	if err != nil {
		return err
	}
	e.e2e["peak_rss_mb"] = float64(peakRSS(srv.cmd.Process.Pid)) / (1 << 20)
	e.info["server_rss_bytes"] = statusField(srv.cmd.Process.Pid, "VmRSS:")
	for i := starts; i < 2*starts; i++ {
		if err := start(i); err != nil {
			return err
		}
	}
	srv.stop()
	e.e2e["setup_s"] = median(setups)
	e.info["setup_samples_s"] = setups

	// Checks and metrics, in sweep order.
	sp := e.tr.begin("check.identity", 1)
	defer e.tr.finish(sp)
	var lats, fields, submits, results, dispatch, jobDur, aggMs []float64
	jobs, computed, notModified := 0, 0, 0
	var computedSteps float64
	seenPoint := map[pointKey][]byte{}
	samePts, comparedPts, sameBodies, repeats := 0, 0, 0, 0
	for j, p := range plans {
		o := out[j]
		failed := 0
		for i, want := range [4]int{http.StatusAccepted, http.StatusOK, http.StatusOK, http.StatusNotModified} {
			failed += boolInt(o.status[i] != want)
		}
		e.ops(4, failed)
		if o.err != nil || failed > 0 {
			e.logf("sweep %s: statuses %v, error %v", p.name, o.status, o.err)
			continue
		}
		notModified++
		lats = append(lats, o.res.Sub(o.events.call).Seconds())
		submits = append(submits, o.sub.Sub(o.events.call).Seconds()*1e3)
		results = append(results, o.res.Sub(o.evEnd).Seconds()*1e3)
		aggMs = append(aggMs, o.evEnd.Sub(o.lastJob).Seconds()*1e3)
		jobs += p.jobs()
		computed += p.jobs() - p.reused

		var res struct {
			Points []json.RawMessage `json:"points"`
		}
		var typed dsmc.SweepResult
		if err := json.Unmarshal(o.body, &res); err != nil || json.Unmarshal(o.body, &typed) != nil || len(res.Points) != len(p.points) {
			e.check("dsmcd_result_decodes", false, "sweep %s: result does not decode to %d points", p.name, len(p.points))
			continue
		}
		if p.repeatOf >= 0 {
			repeats++
			sameBodies += boolInt(bytes.Equal(o.body, out[p.repeatOf].body))
		}
		for i, v := range p.points {
			key := pointKey{i, v, p.replicas}
			if prev, ok := seenPoint[key]; ok {
				comparedPts++
				samePts += boolInt(bytes.Equal(prev, res.Points[i]))
			} else {
				seenPoint[key] = res.Points[i]
				fields = append(fields, o.events.fieldTime(pointName(i, v)))
			}
		}
		if p.reused < p.jobs() {
			// The replicas this sweep computed itself: their dispatch wait
			// and run time. Reused replicas are satisfied at submission.
			for id, jt := range o.events.jobs {
				if jt.started.IsZero() || jt.done.IsZero() || !isReplica(id) {
					continue
				}
				if d := jt.done.Sub(jt.started).Seconds(); d > 0.001 {
					dispatch = append(dispatch, jt.started.Sub(o.events.call).Seconds())
					jobDur = append(jobDur, d)
				}
			}
			var mean float64
			for _, pt := range typed.Points {
				mean += pt.NFlow.Mean / float64(len(typed.Points))
			}
			computedSteps += mean * float64(warm+sample) * float64(p.jobs()-p.reused)
		}
	}
	e.check("dsmcd_repeats_identical", sameBodies == repeats,
		"%d of %d resubmitted sweeps returned a byte-identical result body", sameBodies, repeats)
	e.check("dsmcd_shared_points_identical", samePts == comparedPts,
		"%d of %d point aggregates shared with an earlier sweep are byte-identical to it", samePts, comparedPts)
	e.check("dsmcd_not_modified", notModified == n,
		"%d of %d conditional GETs answered 304", notModified, n)

	e.e2e["us_per_particle_step"] = loopWall * 1e6 / computedSteps
	e.e2e["time_to_field_s"] = median(fields)
	e.e2e["jobs_per_min"] = 60 * float64(jobs) / loopWall
	e.e2e["submit_to_result_p50_s"] = quantile(lats, 0.5)
	e.e2e["submit_to_result_p90_s"] = quantile(lats, 0.9)
	e.info["sweeps"] = n
	e.info["latency_samples"] = len(lats)
	e.info["replica_jobs"] = jobs
	e.info["replica_jobs_reused"] = jobs - computed

	delta := func(k string) float64 { return m1[k] - m0[k] }
	if looks := delta("dsmc_store_hits_total") + delta("dsmc_store_misses_total"); looks > 0 {
		e.layer["store.hit_frac"] = delta("dsmc_store_hits_total") / looks
	}
	e.layer["store.publishes"] = delta("dsmc_store_publishes_total")
	e.layer["store.bytes"] = m1["dsmc_store_bytes"]
	e.layer["coord.dispatch_wait_s_p50"] = median(dispatch)
	e.layer["coord.job_s_p50"] = median(jobDur)
	e.layer["coord.aggregate_ms_p50"] = median(aggMs)
	if computed > 0 {
		e.layer["coord.grants_per_job"] = delta("dsmc_coord_lease_grants_total") / float64(computed)
	}
	e.layer["coord.retries"] = delta("dsmc_coord_retries_total")
	e.layer["dsmcd.submit_ms_p50"] = median(submits)
	e.layer["dsmcd.result_ms_p50"] = median(results)
	e.layer["dsmcd.not_modified_frac"] = float64(notModified) / float64(n)
	return nil
}

// isReplica reports whether a job ID names a replica job rather than a
// point aggregate.
func isReplica(id string) bool {
	return len(id) < len("/aggregate") || id[len(id)-len("/aggregate"):] != "/aggregate"
}

// serveSweep is one client turn: POST the sweep, follow its event
// stream to the end, GET the result, and GET it again with its ETag.
func serveSweep(ctx context.Context, tr *tracer, client *http.Client, base, name string, spec []byte) served {
	o := served{events: newSweepEvents(time.Now())}
	root := tr.beginIn("dsmcd.sweep", 1, name)
	defer tr.finish(root)
	do := func(span string, req *http.Request, slot int) (*http.Response, error) {
		sp := tr.begin(span, root)
		defer tr.finish(sp)
		resp, err := client.Do(req.WithContext(ctx))
		if err == nil {
			o.status[slot] = resp.StatusCode
		}
		return resp, err
	}

	req, _ := http.NewRequest(http.MethodPost, base+"/v1/sweeps", bytes.NewReader(spec))
	req.Header.Set("Content-Type", "application/json")
	resp, err := do("dsmcd.submit", req, 0)
	if err != nil {
		o.err = err
		return o
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	o.sub = time.Now()
	if err != nil || sub.ID == "" {
		o.err = fmt.Errorf("submit answered %d without a sweep id", o.status[0])
		return o
	}

	sp := tr.begin("dsmcd.events", root)
	req, _ = http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+sub.ID+"/events", nil)
	resp, err = client.Do(req.WithContext(ctx))
	if err != nil {
		tr.finish(sp)
		o.err = err
		return o
	}
	o.status[1] = resp.StatusCode
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev dsmc.SweepEvent
		if json.Unmarshal(sc.Bytes(), &ev) == nil {
			now := time.Now()
			o.events.observe(ev, now)
			if ev.Type == "job-done" && isReplica(ev.Job) {
				o.lastJob = now
			}
		}
	}
	resp.Body.Close()
	o.evEnd = time.Now()
	tr.finish(sp)
	for id, jt := range o.events.jobs {
		if jt.started.IsZero() || jt.done.IsZero() {
			continue
		}
		switch {
		case !isReplica(id):
			tr.record("coord.aggregate", sp, "", jt.started, jt.done)
		case jt.done.Sub(jt.started) > time.Millisecond:
			tr.record("coord.dispatch", sp, "", o.sub, jt.started)
			tr.record("coord.job", sp, "", jt.started, jt.done)
		default:
			tr.record("store.hit", sp, "", jt.started, jt.done)
		}
	}
	if err := sc.Err(); err != nil {
		o.err = err
		return o
	}

	req, _ = http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+sub.ID+"/result", nil)
	resp, err = do("dsmcd.result", req, 2)
	if err != nil {
		o.err = err
		return o
	}
	o.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.res = time.Now()
	if err != nil {
		o.err = err
		return o
	}

	req, _ = http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+sub.ID+"/result", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp, err = do("dsmcd.revalidate", req, 3)
	if err != nil {
		o.err = err
		return o
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return o
}
