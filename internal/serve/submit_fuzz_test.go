package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"dard/internal/serve"
)

// submitAllocSlack is what a refused submission may allocate beyond the
// body budget. The JSON decoder reads the body into a buffer that
// doubles as it fills, so reading n bytes allocates about 4n in all: a
// refused body at the budget allocated 4.0 MiB (go1.24, linux/amd64),
// against the 5 MiB allowed.
const submitAllocSlack = 4 * serve.MaxSubmitBytes

// FuzzSubmitScenario feeds POST /jobs arbitrary bodies. No body may
// panic the handler (it runs on the fuzzer's goroutine). A body the
// server refuses must get 400 or 413 with a JSON error naming the
// problem, and handling it must allocate no more than the 1 MiB body
// budget plus submitAllocSlack. Bodies the server would admit are not
// posted: admission does not yet bound a scenario's cost, so one
// accepted submission could generate flows without end.
func FuzzSubmitScenario(f *testing.F) {
	srv := serve.New(serve.Options{Workers: 1})
	valid, err := json.Marshal(map[string]any{"scenario": testScenario(1), "checkpoint_after": 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"scenario":{"Scheduler":"LRU"}}`))
	f.Add([]byte(`{"scenario":{"RatePerHost":-1,"Topology":{"Kind":"fattree","P":3}}}`))
	f.Add([]byte(`{"scenario":{"DARD":{"QueryInterval":1e-300}},"checkpoint_after":-1}`))
	f.Add([]byte(`{"scenario":{},"extra":[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]}`))
	f.Add([]byte(`{"scenario":{"Topology":"` + strings.Repeat("x", 4096) + `"}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	// At and past the body budget.
	f.Add(append(bytes.Repeat([]byte(" "), serve.MaxSubmitBytes-16), `{"scenario":0}`...))
	f.Add([]byte(`{"scenario":{"Pattern":"` + strings.Repeat("\\u00e9", serve.MaxSubmitBytes/6) + `"}}`))
	f.Add(bytes.Repeat([]byte("["), serve.MaxSubmitBytes+1))
	f.Fuzz(func(t *testing.T, body []byte) {
		if serve.Admissible(body) {
			return
		}
		req := httptest.NewRequest("POST", "/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("refused submission answered %d: %q", rec.Code, rec.Body)
		}
		var reply struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || !strings.HasPrefix(reply.Error, "serve: ") && reply.Field == "" {
			t.Fatalf("refusal %d carries no typed error: %q", rec.Code, rec.Body)
		}
		if rec.Code == http.StatusRequestEntityTooLarge && len(body) <= serve.MaxSubmitBytes {
			t.Fatalf("a %d-byte body was refused as too large", len(body))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > serve.MaxSubmitBytes+submitAllocSlack {
			t.Fatalf("refusing a %d-byte body allocated %d bytes, over the %d-byte budget plus %d slack",
				len(body), alloc, serve.MaxSubmitBytes, submitAllocSlack)
		}
	})
}
