package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func postScore(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPRejectsMalformedRequests(t *testing.T) {
	ck, _ := testCheckpoint(t, 4, 6, 3)
	srv, err := New(ck, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"invalid json", "{nope", http.StatusBadRequest},
		{"no instances", `{"instances":[]}`, http.StatusBadRequest},
		{"wrong feature count", `{"instances":[[1,2,3]]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postScore(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var e httpError
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}
	resp, err := http.Get(ts.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /score status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPHealthzTracksDrain(t *testing.T) {
	ck, _ := testCheckpoint(t, 4, 6, 3)
	srv, err := New(ck, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	// Scoring against a draining server maps ErrDraining to 503 too.
	r2, _ := postScore(t, ts.URL, `{"instances":[[1,2,3,4]]}`)
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /score status %d, want 503", r2.StatusCode)
	}
}

// The full production arc, end to end: train a tiny model with the HF
// optimizer, snapshot it through the checkpoint codec, serve it over
// HTTP, and require the served scores to be bit-identical to a direct
// forward pass of the reconstructed network — JSON's shortest-float32
// encoding round-trips exactly, so even the transport must not cost a
// bit.
func TestEndToEndTrainCheckpointServe(t *testing.T) {
	c := corpus.Generate(corpus.Config{
		Seed: 11, NumUtterances: 20, MeanSeconds: 0.3,
		FeatDim: 6, Context: 1, NumStates: 5, NoiseStd: 0.35,
	})
	train, held := c.Split(4)
	prob := core.Problem{
		Topo:           nn.NewTopology(c.InputDim(), 12, 5),
		Train:          train,
		Heldout:        held,
		Criterion:      core.CrossEntropy,
		SampleFraction: 1.0,
		Seed:           7,
	}
	obj, err := core.NewSerialObjective(prob)
	if err != nil {
		t.Fatal(err)
	}
	res := hf.Optimize(obj, hf.Config{
		MaxIterations: 2, Lambda0: 1,
		CG: hf.CGOpts{MaxIters: 10, MinIters: 3},
	})

	// Snapshot through the wire codec, as a deployment would.
	ck := &core.Checkpoint{
		Sizes:       prob.Topo.Sizes,
		Params:      obj.Params(),
		Criterion:   core.CrossEntropy,
		Iteration:   len(res.Iters),
		HeldOutLoss: res.FinalLoss,
	}
	var wire bytes.Buffer
	if err := core.WriteCheckpoint(&wire, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadCheckpoint(&wire)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(loaded, WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(23))
	x := tensor.RandMatrix(rng, 5, c.InputDim(), 1)
	want := core.NetworkFromCheckpoint(loaded).Forward(x).Logits

	req := scoreRequest{Instances: make([][]float32, x.Rows)}
	for i := range req.Instances {
		req.Instances[i] = x.Row(i)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postScore(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/score status %d: %s", resp.StatusCode, raw)
	}
	var sr scoreResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Scores) != x.Rows || len(sr.Classes) != x.Rows {
		t.Fatalf("response has %d scores / %d classes, want %d", len(sr.Scores), len(sr.Classes), x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		wr := want.Row(i)
		if len(sr.Scores[i]) != len(wr) {
			t.Fatalf("row %d has %d scores, want %d", i, len(sr.Scores[i]), len(wr))
		}
		for j, w := range wr {
			if sr.Scores[i][j] != w {
				t.Fatalf("row %d score[%d] = %v, want %v (bitwise through HTTP)", i, j, sr.Scores[i][j], w)
			}
		}
		if sr.Classes[i] != argmax(wr) {
			t.Fatalf("row %d class %d, want %d", i, sr.Classes[i], argmax(wr))
		}
	}
}

// postInstances posts x's rows as one /score request and decodes the
// reply, failing the test on anything but a 200.
func postInstances(t *testing.T, url string, x *tensor.Matrix) scoreResponse {
	t.Helper()
	req := scoreRequest{Instances: make([][]float32, x.Rows)}
	for i := range req.Instances {
		req.Instances[i] = x.Row(i)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postScore(t, url, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/score status %d: %s", resp.StatusCode, raw)
	}
	var sr scoreResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// One POST is one admission, however many instances it carries; and a
// request of 3·MaxBatch+1 instances, scored in MaxBatch-row slices, is
// still bit-equal to nn.Forward over all of its rows.
func TestHTTPOneAdmissionPerRequest(t *testing.T) {
	const maxBatch = 4
	ck, net := testCheckpoint(t, 6, 10, 4)
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	srv, err := New(ck, WithMaxBatch(maxBatch), WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	requests := ob.Registry().Counter("serve.requests")
	rng := rand.New(rand.NewSource(29))

	postInstances(t, ts.URL, tensor.RandMatrix(rng, 8, 6, 1))
	if got := requests.Value(); got != 1 {
		t.Errorf("an 8-instance POST added %d to serve.requests, want 1", got)
	}

	x := tensor.RandMatrix(rng, 3*maxBatch+1, 6, 1)
	want := net.Forward(x).Logits
	sr := postInstances(t, ts.URL, x)
	if len(sr.Scores) != x.Rows || len(sr.Classes) != x.Rows {
		t.Fatalf("reply has %d scores / %d classes, want %d", len(sr.Scores), len(sr.Classes), x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		for j, w := range want.Row(i) {
			if sr.Scores[i][j] != w {
				t.Fatalf("row %d score[%d] = %v, want %v (bitwise)", i, j, sr.Scores[i][j], w)
			}
		}
		if sr.Classes[i] != argmax(want.Row(i)) {
			t.Fatalf("row %d class %d, want %d", i, sr.Classes[i], argmax(want.Row(i)))
		}
	}
	if got := requests.Value(); got != 2 {
		t.Errorf("serve.requests = %d after two POSTs, want 2", got)
	}
}

// A reply that cannot be encoded (a NaN weight makes every score NaN,
// which JSON cannot carry) is a 500 with a JSON error and a count in
// serve.encode_errors, not a 200 with an empty body.
func TestHTTPEncodeFailureIs500(t *testing.T) {
	ck, _ := testCheckpoint(t, 4, 6, 3)
	ck.Params[0] = float32(math.NaN())
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	srv, err := New(ck, WithWorkers(1), WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postScore(t, ts.URL, `{"instances":[[1,2,3,4]]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%q), want 500", resp.StatusCode, body)
	}
	var e httpError
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error body %q not a JSON error", body)
	}
	if got := ob.Registry().Counter("serve.encode_errors").Value(); got != 1 {
		t.Errorf("serve.encode_errors = %d, want 1", got)
	}
}

// FuzzHandleScore posts hostile /score bodies to the handler: truncated
// JSON, ragged rows, many rows, NaN literals, overflowing numbers. It
// must never panic, and a 200 must carry one score vector of OutputDim
// values and one class per instance the handler's own decoder reads from
// the body.
func FuzzHandleScore(f *testing.F) {
	const in, od = 4, 3
	ck, _ := testCheckpoint(f, in, 6, od)
	srv, err := New(ck, WithWorkers(1), WithMaxBatch(4))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	h := srv.Handler()

	many := `{"instances":[` + strings.Repeat(`[0.5,-1,2,3e-7],`, 200) + `[1,1,1,1]]}`
	for _, seed := range []string{
		`{"instances":[[1,2,3,4]]}`,
		`{"instances":[[1,2,3,4],[5,6,7,8]]}`,
		`{"instances":[[1,2,3,4],[5,6,7]]}`,
		`{"instances":[[1,2,3,4`,
		`{"instances":[[NaN,1,2,3]]}`,
		`{"instances":[[1e39,1,2,3]]}`,
		`{"instances":[[3e38,-3e38,3e38,-3e38]]}`,
		`{"instances":null}`,
		`{"instances":[[1,2,3,4]]} trailing`,
		many,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return
		}
		var req scoreRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body the decoder rejects (%v)", err)
		}
		var sr scoreResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("200 with an undecodable reply %q: %v", rec.Body.Bytes(), err)
		}
		if len(req.Instances) == 0 || len(sr.Scores) != len(req.Instances) || len(sr.Classes) != len(req.Instances) {
			t.Fatalf("200 with %d scores / %d classes for %d instances", len(sr.Scores), len(sr.Classes), len(req.Instances))
		}
		for i, row := range req.Instances {
			if len(row) != in || len(sr.Scores[i]) != od || sr.Classes[i] < 0 || sr.Classes[i] >= od {
				t.Fatalf("instance %d: %d features → %d scores, class %d", i, len(row), len(sr.Scores[i]), sr.Classes[i])
			}
		}
	})
}
