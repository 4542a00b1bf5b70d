package serve

import (
	"net/http"
	"strings"
	"testing"

	"graphite/internal/live"
)

func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestRunBodyOverLimitIsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	big := `{"graph":"transit","algorithm":"sssp","params":{"source":0},"span":"` + strings.Repeat("x", MaxRunBody) + `"}`
	if code := postRaw(t, ts.URL+"/v1/run", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized run body: status %d, want 413", code)
	}
	if n := s.reg.Counter(CRunsExecuted).Load(); n != 0 {
		t.Fatalf("oversized request executed %d runs", n)
	}
	if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: "sssp", Params: map[string]int64{"source": 0}}, nil); code != http.StatusOK {
		t.Fatalf("run after the rejection: status %d", code)
	}
}

func TestEventsBodyOverLimitIsRejected(t *testing.T) {
	_, lg, ts := newLiveServer(t, live.Options{NoSync: true})
	url := ts.URL + "/v1/graphs/g/events"
	big := `{"events":[{"op":"av","t":0,"v":1},{"op":"vp","t":0,"v":1,"label":"` +
		strings.Repeat("x", MaxEventsBody) + `","value":1}]}`
	if code := postRaw(t, url, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized events body: status %d, want 413", code)
	}
	if info := lg.Info(); info.Epoch != 0 || info.Events != 0 {
		t.Fatalf("oversized batch was applied: %+v", info)
	}
	if code := postEvents(t, ts, "g", chainEvents(0, 3, 0), nil); code != http.StatusOK {
		t.Fatalf("batch after the rejection: status %d", code)
	}
	if info := lg.Info(); info.Epoch != 1 {
		t.Fatalf("epoch after one accepted batch = %d", info.Epoch)
	}
}
