package query

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
)

// FuzzEnvelopeJSON drives the wire-format union decoder with arbitrary
// JSON: every input must either fail decoding cleanly or produce an
// envelope that re-marshals and decodes to the same request — no panics,
// and no half-decoded envelopes with a nil Request escaping a nil error.
// A request that decodes, of any kind, must then validate with a typed
// error (ErrInvalid/ErrCell) or execute without panicking and without
// escaping the sentinels. Its corpus holds both seed lists; it is the
// query target CI fuzzes.
func FuzzEnvelopeJSON(f *testing.F) {
	// Seeds: every kind, flattened-field forms, and the classic failure
	// shapes (missing kind, unknown kind, wrong field types, non-objects).
	for _, s := range []string{
		`{"kind":"summary"}`,
		`{"kind":"exceptions","k":3,"order":"key"}`,
		`{"kind":"alerts"}`,
		`{"kind":"supporters","members":[0,1]}`,
		`{"kind":"slice","dim":1,"level":1,"member":2}`,
		`{"kind":"trend","members":[2,0],"k":4,"level":1}`,
		`{"kind":"frame","members":[0,0]}`,
		`{"kind":"frame","levels":[1,1],"members":[0,0]}`,
		`{}`,
		`{"kind":"bogus"}`,
		`{"kind":42}`,
		`{"kind":"trend","members":"zero"}`,
		`[]`,
		`null`,
		`"summary"`,
		`{"kind":"exceptions","k":99999999999999999999}`,
	} {
		f.Add([]byte(s))
	}
	for _, s := range forecastSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(fuzzRequest)
}

// FuzzForecastEnvelopeJSON replays the predictive kinds' seeds through
// the same property: non-finite thresholds, giant horizons and truncated
// cell references included.
func FuzzForecastEnvelopeJSON(f *testing.F) {
	for _, s := range forecastSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(fuzzRequest)
}

var forecastSeeds = []string{
	`{"kind":"forecast","members":[0,0],"horizon":60}`,
	`{"kind":"forecast","members":[1,1],"k":2,"horizon":8,"threshold":120.5}`,
	`{"kind":"forecast","levels":[1,1],"members":[0,1],"horizon":1,"threshold":-3}`,
	`{"kind":"forecast","members":[0,0]}`,
	`{"kind":"forecast","members":[0,0],"horizon":-1}`,
	`{"kind":"forecast","members":[0],"horizon":5}`,
	`{"kind":"forecast","members":[9,9],"horizon":5}`,
	`{"kind":"forecast","members":[0,0],"horizon":9223372036854775807}`,
	`{"kind":"forecast","members":[0,0],"horizon":5,"threshold":1e400}`,
	`{"kind":"forecast","threshold":"high"}`,
	`{"kind":"changes"}`,
	`{"kind":"changes","k":5,"minScore":0.25}`,
	`{"kind":"changes","k":-1}`,
	`{"kind":"changes","minScore":2}`,
	`{"kind":"changes","minScore":-0.0001}`,
	`{"kind":"changes","minScore":null}`,
}

// fuzzRequest is the query property: a decoded request validates with a
// typed error or executes within the sentinel taxonomy.
func fuzzRequest(t *testing.T, b []byte) {
	env := fuzzEnvelope(t, b)
	if env == nil {
		return
	}
	if err := env.Request.Validate(execSchema(t)); err != nil {
		if !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrCell) {
			t.Fatalf("Validate of %q returned untyped error %v", b, err)
		}
		return
	}
	if _, err := fuzzExecutor(t).Execute(env.Request); err != nil && HTTPStatus(err) == http.StatusInternalServerError {
		t.Fatalf("Execute of %q escaped the sentinels: %v", b, err)
	}
}

// fuzzExec caches one executor for the fuzz workers — building the
// 13-unit tilted fixture per input would dominate the fuzz budget.
var (
	fuzzExecOnce sync.Once
	fuzzExec     *Executor
)

func fuzzExecutor(t *testing.T) *Executor {
	fuzzExecOnce.Do(func() {
		fuzzExec = execTestExecutor(t, 13, execTiltChain)
	})
	return fuzzExec
}

// fuzzEnvelope runs the shared union-decoder property: clean rejection,
// or a stable marshal/unmarshal round trip. Returns the decoded envelope
// (nil when the input was rejected).
func fuzzEnvelope(t *testing.T, b []byte) *Envelope {
	var env Envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil // clean rejection is a correct outcome
	}
	if env.Request == nil {
		t.Fatalf("decode of %q succeeded with nil Request", b)
	}
	// A successfully decoded envelope must survive a marshal/unmarshal
	// round trip unchanged — the wire format is self-consistent.
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("re-marshal of %q failed: %v", b, err)
	}
	var env2 Envelope
	if err := json.Unmarshal(out, &env2); err != nil {
		t.Fatalf("re-decode of %s (from %q) failed: %v", out, b, err)
	}
	if env2.Request.Kind() != env.Request.Kind() {
		t.Fatalf("round trip changed kind %q -> %q", env.Request.Kind(), env2.Request.Kind())
	}
	out2, err := json.Marshal(env2)
	if err != nil {
		t.Fatalf("second marshal failed: %v", err)
	}
	if string(out) != string(out2) {
		t.Fatalf("marshal not stable: %s vs %s", out, out2)
	}
	return &env
}
