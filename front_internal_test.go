package chl

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/delta"
)

// TestWriteErrorTable pins the one error writer both tiers answer every
// failed request through: one row per error kind, status and body byte
// for byte.
func TestWriteErrorTable(t *testing.T) {
	log, _, err := delta.OpenLog(GenerateRoadGrid(2, 2, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	_, refused := log.Apply(nil)
	if !delta.Refused(refused) {
		t.Fatalf("an empty patch is not a refusal: %v", refused)
	}
	// The error a /paths request fails with when the labels contradict
	// themselves: expandPath raises it on either tier (under BatchEngine.Path
	// and Router.Path alike), so both answer it the same way.
	hostile := func(u, v int) (float64, int, bool, error) { return 4, 99, true, nil }
	_, _, _, corrupt := expandPath(0, 5, 10, hostile)
	if corrupt == nil {
		t.Fatal("expandPath accepted a witness hub outside the vertex space")
	}
	relayed := &statusError{code: http.StatusBadRequest, body: []byte("{\"error\":\"chl: reload x rejected\"}\n")}
	for _, row := range []struct {
		name string
		err  error
		code int
		body string
	}{
		{"vertex range", &VertexRangeError{ID: 7, N: 5}, 400, `{"error":"vertex ids must be in [0,5)"}`},
		{"wrapped vertex range", fmt.Errorf("routing: %w", &VertexRangeError{ID: -1, N: 5}), 400, `{"error":"vertex ids must be in [0,5)"}`},
		{"malformed request", badRequest("u and v must be integer vertex ids"), 400, `{"error":"u and v must be integer vertex ids"}`},
		{"body too large", &requestError{code: http.StatusRequestEntityTooLarge, msg: "too big"}, 413, `{"error":"too big"}`},
		{"misdirected", &requestError{code: http.StatusMisdirectedRequest, shard: 2, msg: "vertex 9 is not owned by shard 2"}, 421,
			`{"error":"vertex 9 is not owned by shard 2","shard":2}`},
		{"updates off", fmt.Errorf("%w on this server", errUpdatesDisabled), 409, `{"error":"chl: updates are not enabled on this server"}`},
		{"patch refused", refused, 400, `{"error":"delta: empty patch"}`},
		{"cluster degraded", &ClusterError{Failed: []*ShardError{{Shard: 1, Replica: -1, Addr: "http://a", Err: errors.New("down")}}}, 502,
			`{"error":"cluster degraded: shard 1 (http://a): down","failed_shards":[{"addr":"http://a","error":"down","replica":-1,"shard":1}]}`},
		{"relayed replica answer", relayed, 400, `{"error":"chl: reload x rejected"}`},
		{"corrupt labels on /paths", corrupt, 500, `{"error":"` + corrupt.Error() + `"}`},
		{"anything else", errors.New("journal: disk full"), 500, `{"error":"journal: disk full"}`},
	} {
		t.Run(row.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeError(rec, row.err)
			if rec.Code != row.code || rec.Body.String() != row.body+"\n" {
				t.Errorf("writeError(%v) = %d %q, want %d %q", row.err, rec.Code, rec.Body, row.code, row.body+"\n")
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
		})
	}
}
