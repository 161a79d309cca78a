package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsmc"
)

func tinySpec() dsmc.SweepSpec {
	cfg := dsmc.PaperConfig()
	cfg.GridNX, cfg.GridNY = 48, 24
	cfg.Wedge = dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	cfg.ParticlesPerCell = 3
	cfg.Seed = 7
	ss, err := dsmc.NewScenarioSpec(cfg)
	if err != nil {
		panic(err)
	}
	return dsmc.SweepSpec{
		Name:     "smoke",
		Scenario: ss,
		Points: []dsmc.SweepPoint{
			{Name: "rarefied"},
		},
		Replicas:    2,
		WarmSteps:   4,
		SampleSteps: 4,
	}
}

func submit(t *testing.T, ts *httptest.Server, spec dsmc.SweepSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["id"] == "" {
		t.Fatal("submit returned no id")
	}
	return out["id"]
}

func waitDone(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st statusView
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == stateDone || st.State == stateFailed {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return statusView{}
}

// TestServerLifecycle: submit → status → events → result, end to end.
func TestServerLifecycle(t *testing.T) {
	s, err := newServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	id := submit(t, ts, tinySpec())
	st := waitDone(t, ts, id)
	if st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}
	if len(st.Jobs) != 3 { // 2 replicas + 1 aggregate
		t.Errorf("status lists %d jobs, want 3", len(st.Jobs))
	}

	// Events: finished sweep streams its full history and closes.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var lines, progress int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e dsmc.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
		if e.Type == "job-progress" {
			progress++
		}
	}
	if lines == 0 || progress == 0 {
		t.Errorf("event stream had %d lines, %d progress events", lines, progress)
	}

	// Result: aggregated stats for the one point.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res dsmc.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Replicas != 2 {
		t.Fatalf("result %+v, want 1 point of 2 replicas", res)
	}
	if res.Points[0].NFlow.Mean <= 0 {
		t.Error("aggregated flow count not positive")
	}
}

// TestServerValidation: malformed and invalid submissions 400 with a
// diagnostic; unknown sweeps 404; premature result fetch 409.
func TestServerValidation(t *testing.T) {
	s, err := newServer(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// post submits a body and returns the status and the error message.
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	if code, _ := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", code)
	}
	if code, _ := post(`{"unknown_field": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	// A spec still written against the removed flat "base" config is
	// refused by name, not run without a scenario.
	legacy := `{"base":{"GridNX":48,"GridNY":24,"Mach":4,"ThermalSpeed":0.125,"ParticlesPerCell":3},` +
		`"replicas":1,"warm_steps":1,"sample_steps":1}`
	if code, msg := post(legacy); code != http.StatusBadRequest || !strings.Contains(msg, `"base"`) {
		t.Errorf("legacy base spec: status %d, error %q (want 400 naming \"base\")", code, msg)
	}
	bad := tinySpec()
	var params map[string]any
	if err := json.Unmarshal(bad.Scenario.Params, &params); err != nil {
		t.Fatal(err)
	}
	params["Precision"] = "float16"
	bad.Scenario.Params, _ = json.Marshal(params)
	raw, _ := json.Marshal(bad)
	if code, msg := post(string(raw)); code != http.StatusBadRequest || !strings.Contains(msg, "precision") {
		t.Errorf("invalid precision: status %d, error %q", code, msg)
	}
	noReplicas := tinySpec()
	noReplicas.Replicas = 0
	raw, _ = json.Marshal(noReplicas)
	if code, _ := post(string(raw)); code != http.StatusBadRequest {
		t.Errorf("zero replicas: status %d", code)
	}
	withDir := tinySpec()
	withDir.CheckpointDir = "/tmp/evil"
	raw, _ = json.Marshal(withDir)
	if code, _ := post(string(raw)); code != http.StatusBadRequest {
		t.Errorf("client checkpoint dir: status %d", code)
	}
	withStore := tinySpec()
	withStore.ResultStoreDir = "/tmp/evil-store"
	raw, _ = json.Marshal(withStore)
	if code, _ := post(string(raw)); code != http.StatusBadRequest {
		t.Errorf("client result store dir: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/sw-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d", resp.StatusCode)
	}
}

// TestServerScenarioSweep: a spec with a first-class 3D scenario base,
// multi-quantity sampling and per-point grid-shape overrides runs end to
// end; the result carries per-point field shapes, and the quantity
// endpoint serves any sampled quantity (404 for unsampled ones).
func TestServerScenarioSweep(t *testing.T) {
	s, err := newServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ss, err := dsmc.NewScenarioSpec(dsmc.ShockTube3D{
		GridNX: 24, GridNY: 4, GridNZ: 4,
		ThermalSpeed: 0.125, PistonSpeed: 0.131,
		ParticlesPerCell: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, ts, dsmc.SweepSpec{
		Name:       "tube",
		Scenario:   ss,
		Quantities: []dsmc.Quantity{dsmc.Density, dsmc.Temperature},
		Points: []dsmc.SweepPoint{
			{Name: "short"},
			{Name: "long", GridNX: iptr(32)},
		},
		Replicas:    1,
		WarmSteps:   3,
		SampleSteps: 3,
	})
	if st := waitDone(t, ts, id); st.State != stateDone {
		t.Fatalf("sweep state %s (%s)", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res dsmc.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	wantNX := []int{24, 32}
	for p := range res.Points {
		fs, ok := res.Points[p].Fields[dsmc.Temperature]
		if !ok {
			t.Fatalf("point %d missing temperature aggregate", p)
		}
		if fs.NX != wantNX[p] || fs.NZ != 4 || len(fs.Mean) != wantNX[p]*16 {
			t.Errorf("point %d temperature shape %dx%dx%d (%d cells), want NX %d",
				p, fs.NX, fs.NY, fs.NZ, len(fs.Mean), wantNX[p])
		}
	}

	// The quantity endpoint serves any sampled quantity per point...
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/result?quantity=temperature")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantity endpoint status %d", resp.StatusCode)
	}
	var qv quantityView
	if err := json.NewDecoder(resp.Body).Decode(&qv); err != nil {
		t.Fatal(err)
	}
	if qv.Quantity != "temperature" || len(qv.Points) != 2 {
		t.Fatalf("quantity view %+v", qv)
	}
	if qv.Points[1].Field.NX != 32 || len(qv.Points[1].Field.Mean) != 32*16 {
		t.Errorf("quantity view shape %d (%d cells)", qv.Points[1].Field.NX, len(qv.Points[1].Field.Mean))
	}

	// ...and 404s for quantities the sweep never sampled.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/result?quantity=mach")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled quantity: status %d, want 404", resp.StatusCode)
	}
}

func iptr(v int) *int { return &v }

// TestServerRecovery: a new server over an existing data directory
// serves finished sweeps and their results without re-running them.
func TestServerRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	id := submit(t, ts1, tinySpec())
	st := waitDone(t, ts1, id)
	ts1.Close()
	if st.State != stateDone {
		t.Fatalf("first run state %s", st.State)
	}

	s2, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	st2 := waitDone(t, ts2, id)
	if st2.State != stateDone || !st2.Resumed {
		t.Fatalf("recovered sweep state %s resumed=%v", st2.State, st2.Resumed)
	}
	resp, err := http.Get(ts2.URL + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res dsmc.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("recovered result has %d points", len(res.Points))
	}
}

// TestServerRecoveryLegacyBaseSpec: a data directory holding an
// unfinished sweep whose spec.json carries only the removed flat "base"
// config recovers that sweep as failed, with an error naming the
// missing scenario; the server keeps serving and runs a new sweep.
func TestServerRecoveryLegacyBaseSpec(t *testing.T) {
	dir := t.TempDir()
	const id = "sw-000007"
	if err := os.MkdirAll(filepath.Join(dir, id, "ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := `{"name":"legacy","base":{"GridNX":48,"GridNY":24,"Mach":4,"ThermalSpeed":0.125,` +
		`"ParticlesPerCell":3},"replicas":1,"warm_steps":2,"sample_steps":2}`
	if err := os.WriteFile(filepath.Join(dir, id, "spec.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	st := waitDone(t, ts, id)
	if st.State != stateFailed || !strings.Contains(st.Error, "scenario") {
		t.Fatalf("legacy sweep recovered as %s (error %q), want failed naming the scenario", st.State, st.Error)
	}
	newID := submit(t, ts, tinySpec())
	if newID == id {
		t.Fatalf("new sweep reused the recovered id %s", id)
	}
	if st := waitDone(t, ts, newID); st.State != stateDone {
		t.Fatalf("new sweep state %s (%s)", st.State, st.Error)
	}
}
