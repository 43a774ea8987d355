package main

// ctl against a stub node: a membership change prints the ring the node
// answers with, and a change the node refuses is an error, never a
// printed empty ring.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// stubNode answers every ring change with status and body, recording the
// peer URL each request named (JSON body for POST, ?url= for DELETE).
func stubNode(t *testing.T, status int, body any) (*httptest.Server, *[]string) {
	t.Helper()
	var named []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var doc struct {
				URL string `json:"url"`
			}
			if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
				t.Errorf("POST body: %v", err)
			}
			named = append(named, doc.URL)
		case http.MethodDelete:
			named = append(named, r.URL.Query().Get("url"))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body)
	}))
	t.Cleanup(ts.Close)
	return ts, &named
}

func TestPeerChangesPrintRing(t *testing.T) {
	const self, peer = "http://10.0.0.5:8374", "http://10.0.0.6:8374/a+b?x=1&y=2"
	ts, named := stubNode(t, http.StatusOK, cluster.RingInfo{Self: self, Members: []string{self, peer}})
	var out bytes.Buffer
	c := &ctl{base: ts.URL, client: ts.Client(), out: &out}

	for name, change := range map[string]func(string) error{"peer-add": c.peerAdd, "peer-remove": c.peerRemove} {
		out.Reset()
		if err := change(peer); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := "ring of 2 member(s), as seen by " + self; !strings.Contains(out.String(), want) {
			t.Errorf("%s printed %q, want %q", name, out.String(), want)
		}
	}
	for _, got := range *named {
		if got != peer {
			t.Errorf("node saw peer %q, want %q", got, peer)
		}
	}
}

func TestPeerChangesReportRefusal(t *testing.T) {
	ts, _ := stubNode(t, http.StatusBadRequest, map[string]string{"error": "want ?url=..."})
	var out bytes.Buffer
	c := &ctl{base: ts.URL, client: ts.Client(), out: &out}

	for name, change := range map[string]func(string) error{"peer-add": c.peerAdd, "peer-remove": c.peerRemove} {
		out.Reset()
		err := change("http://10.0.0.6:8374")
		if err == nil {
			t.Errorf("%s: a 400 answer returned no error; printed %q", name, out.String())
			continue
		}
		if !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "want ?url=") {
			t.Errorf("%s: error %q should carry the status and the node's message", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q for a refused change", name, out.String())
		}
	}
}
