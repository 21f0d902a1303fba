package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// scoreRequest is the POST /score body: a batch of feature vectors.
type scoreRequest struct {
	Instances [][]float32 `json:"instances"`
}

// scoreResponse is the /score reply: one score vector per instance,
// plus the argmax class of each.
type scoreResponse struct {
	Scores  [][]float32 `json:"scores"`
	Classes []int       `json:"classes"`
}

// httpError is the JSON error body for non-200 replies.
type httpError struct {
	Error string `json:"error"`
}

// maxScoreBody bounds a /score request body (16 MiB) so a misbehaving
// client cannot balloon the decoder.
const maxScoreBody = 16 << 20

// Handler returns the server's HTTP API:
//
//	POST /score    {"instances":[[...features...],...]}
//	               → {"scores":[[...],...],"classes":[...]}
//	GET  /healthz  200 while serving, 503 while draining
//
// A request's instances are flattened into one row-major block and
// admitted as one request: one admission, one shed decision. Admission
// failures map to transport status codes: ErrQueueFull → 429 (retry
// later), ErrDraining and ErrWorkerLost → 503. The reply is encoded
// before the status line, so an unencodable one (a non-finite score) is
// a 500, never a 200 with an empty body.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", s.handleScore)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST /score")
		return
	}
	var req scoreRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxScoreBody))
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	n, in, od := len(req.Instances), s.topo.InputDim(), s.topo.OutputDim()
	if n == 0 {
		writeJSONError(w, http.StatusBadRequest, "no instances")
		return
	}
	rows := make([]float32, 0, n*in)
	for i, row := range req.Instances {
		if len(row) != in {
			writeJSONError(w, http.StatusBadRequest,
				fmt.Sprintf("instance %d has %d features, model wants %d", i, len(row), in))
			return
		}
		rows = append(rows, row...)
	}
	out := make([]float32, n*od)
	if err := s.b.score(rows, out, n); err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	resp := scoreResponse{Scores: make([][]float32, n), Classes: make([]int, n)}
	for i := range resp.Scores {
		resp.Scores[i] = out[i*od : (i+1)*od]
		resp.Classes[i] = argmax(resp.Scores[i])
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(&resp); err != nil {
		s.met.encodeErrors.Inc()
		writeJSONError(w, http.StatusInternalServerError, fmt.Sprintf("encode reply: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body.Bytes()) // the client went away; nothing left to signal
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSONError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write([]byte("{\"status\":\"ok\"}\n")); err != nil {
		_ = err
	}
}

// statusFor maps admission errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrWorkerLost):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(httpError{Error: msg}); err != nil {
		_ = err
	}
}

// argmax returns the index of the largest score.
func argmax(scores []float32) int {
	best := 0
	for j, v := range scores {
		if v > scores[best] {
			best = j
		}
	}
	return best
}
