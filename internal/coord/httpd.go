package coord

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// Handler exposes the coordinator protocol over HTTP under /coord/v1/.
// Job IDs contain slashes ("<point>/r000"), so requests address jobs
// with ?sweep=&job=&lease= query parameters rather than path segments.
// Error mapping: stale lease → 410 Gone, unknown sweep/job → 404; the
// client maps them back to the same sentinel errors the in-process
// queue returns.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/v1/poll", c.handlePoll)
	mux.HandleFunc("POST /coord/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /coord/v1/checkpoint", c.handleGetCheckpoint)
	mux.HandleFunc("PUT /coord/v1/checkpoint", c.handlePutCheckpoint)
	mux.HandleFunc("POST /coord/v1/complete", c.handleComplete)
	mux.HandleFunc("POST /coord/v1/release", c.handleRelease)
	mux.HandleFunc("POST /coord/v1/fail", c.handleFail)
	mux.HandleFunc("GET /coord/v1/workers", c.handleWorkers)
	return mux
}

// maxControlBody bounds the JSON bodies of the control calls (poll,
// heartbeat, release, fail) at dsmcd's submit limit.
const maxControlBody = 1 << 20

// decodeControl decodes a control call's JSON body, refusing bodies
// over maxControlBody.
func decodeControl(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(v)
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if err := decodeControl(w, r, &req); err != nil || req.Worker == "" {
		http.Error(w, "bad poll request", http.StatusBadRequest)
		return
	}
	lease, err := c.Poll(req.Worker)
	if err != nil {
		coordError(w, err)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := decodeControl(w, r, &hb); err != nil {
		http.Error(w, "bad heartbeat", http.StatusBadRequest)
		return
	}
	status, err := c.HandleHeartbeat(hb)
	if err != nil {
		coordError(w, err)
		return
	}
	writeJSON(w, map[string]string{"status": status})
}

func (c *Coordinator) handleGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	data, err := c.LoadCheckpoint(sweep, job, lease)
	if err != nil {
		coordError(w, err)
		return
	}
	if len(data) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (c *Coordinator) handlePutCheckpoint(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	if err := c.SaveCheckpoint(sweep, job, lease, data); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	out, err := DecodeOutput(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := c.Complete(sweep, job, lease, out); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	var req struct {
		StepsDone int `json:"steps_done"`
	}
	if err := decodeControl(w, r, &req); err != nil {
		http.Error(w, "bad release", http.StatusBadRequest)
		return
	}
	if err := c.Release(sweep, job, lease, req.StepsDone); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	sweep, job, lease, ok := jobParams(w, r)
	if !ok {
		return
	}
	var req struct {
		Error string `json:"error"`
	}
	if err := decodeControl(w, r, &req); err != nil {
		http.Error(w, "bad fail request", http.StatusBadRequest)
		return
	}
	if err := c.Fail(sweep, job, lease, req.Error); err != nil {
		coordError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"workers": c.Workers()})
}

func jobParams(w http.ResponseWriter, r *http.Request) (sweep, job, lease string, ok bool) {
	q := r.URL.Query()
	sweep, job, lease = q.Get("sweep"), q.Get("job"), q.Get("lease")
	if sweep == "" || job == "" || lease == "" {
		http.Error(w, "sweep, job and lease query parameters required", http.StatusBadRequest)
		return "", "", "", false
	}
	return sweep, job, lease, true
}

func coordError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrStaleLease):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, ErrUnknown):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
