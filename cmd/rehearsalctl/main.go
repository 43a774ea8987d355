// Command rehearsalctl operates a rehearsald cluster from the terminal.
//
// Usage:
//
//	rehearsalctl [-node URL] <command> [args]
//
// Commands:
//
//	status                ring membership as seen by -node (self, members,
//	                      dead peers)
//	peer-add URL          add a peer to -node's ring
//	peer-remove URL       remove a peer from -node's ring
//	stats                 cache and routing counters aggregated across every
//	                      ring member (per-node rows + fleet totals)
//
// Membership commands change one node's view; run them against each member
// (or script them) to keep views aligned — the ring tolerates brief
// disagreement by construction (routed requests are never re-routed, and a
// mis-owned lookup is just a miss).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	node := flag.String("node", "http://localhost:8374", "URL of any cluster member to talk to")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: rehearsalctl [-node URL] status | peer-add URL | peer-remove URL | stats\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	c := &ctl{base: cluster.NormalizeURL(*node), client: &http.Client{Timeout: *timeout}, out: os.Stdout}
	var err error
	switch cmd, args := flag.Arg(0), flag.Args(); cmd {
	case "status":
		err = c.status()
	case "peer-add":
		if len(args) != 2 {
			usageFatal("peer-add needs exactly one URL")
		}
		err = c.peerAdd(args[1])
	case "peer-remove":
		if len(args) != 2 {
			usageFatal("peer-remove needs exactly one URL")
		}
		err = c.peerRemove(args[1])
	case "stats":
		err = c.stats()
	case "":
		usageFatal("missing command")
	default:
		usageFatal(fmt.Sprintf("unknown command %q", cmd))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rehearsalctl: %v\n", err)
		os.Exit(1)
	}
}

func usageFatal(msg string) {
	fmt.Fprintf(os.Stderr, "rehearsalctl: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

type ctl struct {
	base   string
	client *http.Client
	out    io.Writer
}

// doJSON sends req and decodes a 200 response into out; any other status
// is an error carrying the start of the node's response body.
func (c *ctl) doJSON(req *http.Request, out any) error {
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// getJSON decodes a JSON response from one node into out.
func (c *ctl) getJSON(node, path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, node+path, nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, out)
}

func (c *ctl) ring() (cluster.RingInfo, error) {
	var info cluster.RingInfo
	err := c.getJSON(c.base, "/v1/ring", &info)
	return info, err
}

func printRing(w io.Writer, info cluster.RingInfo) {
	dead := map[string]bool{}
	for _, d := range info.Dead {
		dead[d] = true
	}
	fmt.Fprintf(w, "ring of %d member(s), as seen by %s:\n", len(info.Members), info.Self)
	for _, m := range info.Members {
		mark := "  "
		switch {
		case m == info.Self:
			mark = "* " // the node answering
		case dead[m]:
			mark = "! " // in dead-peer cooldown
		}
		fmt.Fprintf(w, "  %s%s\n", mark, m)
	}
	if len(info.Dead) > 0 {
		fmt.Fprintf(w, "  (! = dead peer: skipped until its cooldown expires)\n")
	}
}

func (c *ctl) status() error {
	info, err := c.ring()
	if err != nil {
		return err
	}
	printRing(c.out, info)
	return nil
}

func (c *ctl) peerAdd(peer string) error {
	body, _ := json.Marshal(map[string]string{"url": peer})
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/ring/peers", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.changeRing(req)
}

func (c *ctl) peerRemove(peer string) error {
	req, err := http.NewRequest(http.MethodDelete,
		c.base+"/v1/ring/peers?url="+url.QueryEscape(peer), nil)
	if err != nil {
		return err
	}
	return c.changeRing(req)
}

// changeRing sends a membership change and prints the ring it returns.
func (c *ctl) changeRing(req *http.Request) error {
	var info cluster.RingInfo
	if err := c.doJSON(req, &info); err != nil {
		return err
	}
	printRing(c.out, info)
	return nil
}

func (c *ctl) stats() error {
	info, err := c.ring()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(c.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tMEM HITS\tMISSES\tDISK HITS\tRING HITS\tRING PUTS\tROUTED\tPROXIED\tFALLBACKS\tJOBS DONE")
	var total service.ClusterStats
	reached := 0
	for _, m := range info.Members {
		var st service.ClusterStats
		if err := c.getJSON(m, "/v1/cluster/stats", &st); err != nil {
			fmt.Fprintf(tw, "%s\tunreachable: %v\n", m, err)
			continue
		}
		reached++
		var remoteHits, remotePuts int64
		if st.Remote != nil {
			remoteHits, remotePuts = st.Remote.Hits, st.Remote.Puts
		}
		var diskHits int64
		if st.Disk != nil {
			diskHits = st.Disk.Hits
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			m, st.Qcache.Hits, st.Qcache.Misses, diskHits, remoteHits, remotePuts,
			st.RoutedLocal, st.RoutedProxied, st.ProxyFallbacks, st.Jobs["done"])
		total.Qcache.Hits += st.Qcache.Hits
		total.Qcache.Misses += st.Qcache.Misses
		total.RoutedLocal += st.RoutedLocal
		total.RoutedProxied += st.RoutedProxied
		total.ProxyFallbacks += st.ProxyFallbacks
		if st.Remote != nil {
			total.Qcache.RemoteHits += st.Remote.Hits
		}
	}
	tw.Flush()
	if reached == 0 {
		return fmt.Errorf("no cluster member reachable")
	}
	fmt.Fprintf(c.out, "fleet: %d/%d nodes, %d memory hits, %d misses, %d ring hits, %d routed local, %d proxied, %d fallbacks\n",
		reached, len(info.Members), total.Qcache.Hits, total.Qcache.Misses,
		total.Qcache.RemoteHits, total.RoutedLocal, total.RoutedProxied, total.ProxyFallbacks)
	return nil
}
