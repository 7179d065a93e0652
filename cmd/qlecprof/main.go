// Command qlecprof captures, lists and fetches qlecd profile artifacts
// — one daemon's or the whole fleet's.
//
// Usage:
//
//	qlecprof list    [-addr URL] [-fleet]
//	qlecprof capture [-addr URL] [-kind cpu] [-seconds 2] [-fleet] [-min 0]
//	qlecprof fetch   [-addr URL] [-id latest] [-o FILE]
//
// list shows the artifacts a daemon retains (FIFO-capped by
// -profile-history); -fleet merges every ready peer's listing. capture
// snapshots a profile right now — cpu, heap, goroutine, block or mutex
// — and with -fleet does so on every ready peer too, so one command
// profiles the fleet under load; -min N exits 1 unless at least N
// non-empty captures came back (CI gate). fetch downloads an
// artifact's raw bytes ("latest" = newest). Every kind is gzipped
// protobuf, read with the Go toolchain's pprof:
//
//	go tool pprof -top heap.pb.gz
//	go tool pprof -top -sample_index=alloc_space heap.pb.gz
//	go tool pprof -top -diff_base before.pb.gz after.pb.gz
//
// The last ranks the stack-by-stack change between two captures of
// the same kind — the needle for "what grew between these two
// snapshots".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"qlec/internal/cli"
	"qlec/internal/plot"
	"qlec/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		cmdList(os.Args[2:])
	case "capture":
		cmdCapture(os.Args[2:])
	case "fetch":
		cmdFetch(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  qlecprof list    [-addr URL] [-fleet]
  qlecprof capture [-addr URL] [-kind cpu] [-seconds 2] [-fleet] [-min 0]
  qlecprof fetch   [-addr URL] [-id latest] [-o FILE]
read captures with: go tool pprof -top [-diff_base before.pb.gz] FILE`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qlecprof:", err)
	os.Exit(1)
}

// client is the daemon-facing HTTP side, shared by list/capture/fetch.
type client struct {
	base string
	hc   *http.Client
	ctx  context.Context
}

func newClient(addr string, timeout time.Duration) *client {
	// Per-request deadlines come from hc.Timeout; ctx only carries
	// process-level cancellation (Ctrl-C) for these one-shot commands.
	ctx, stop := cli.Context(0)
	_ = stop // process exit releases it; commands are one-shot
	return &client{
		base: strings.TrimRight(addr, "/"),
		hc:   &http.Client{Timeout: timeout},
		ctx:  ctx,
	}
}

func (c *client) getJSON(path string, out any) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return httpErr(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) postJSON(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.base+path, strings.NewReader(string(data)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return httpErr(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func httpErr(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s", resp.Status)
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "qlecd base URL")
	fleetWide := fs.Bool("fleet", false, "merge every ready peer's listing")
	profFlags := cli.ProfileFlags(fs)
	fs.Parse(args)
	if err := profFlags.Start(); err != nil {
		fail(err)
	}
	defer profFlags.Stop()
	c := newClient(*addr, 15*time.Second)
	path := "/v1/profiles"
	if *fleetWide {
		path += "?fleet=1"
	}
	var arts []prof.Artifact
	if err := c.getJSON(path, &arts); err != nil {
		fail(err)
	}
	if len(arts) == 0 {
		fmt.Println("no profiles captured")
		return
	}
	rows := make([][]string, 0, len(arts))
	for _, a := range arts {
		reason := a.Reason
		if reason == "" {
			reason = "manual"
		}
		rows = append(rows, []string{
			a.ID, a.Instance, a.Kind, reason,
			a.CreatedAt.Format(time.RFC3339),
			fmt.Sprintf("%d", a.SizeBytes),
		})
	}
	fmt.Println(plot.Table(
		[]string{"id", "instance", "kind", "reason", "created", "bytes"}, rows))
}

func cmdCapture(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "qlecd base URL")
	kind := fs.String("kind", "cpu", "profile kind: cpu, heap, goroutine, block or mutex")
	seconds := fs.Float64("seconds", 2, "cpu sampling window in seconds")
	fleetWide := fs.Bool("fleet", false, "capture on every ready peer too")
	minCaptures := fs.Int("min", 0, "exit 1 unless at least N non-empty captures succeeded (CI gate)")
	profFlags := cli.ProfileFlags(fs)
	fs.Parse(args)
	if err := profFlags.Start(); err != nil {
		fail(err)
	}
	defer profFlags.Stop()
	timeout := time.Duration(*seconds*float64(time.Second)) + 30*time.Second
	c := newClient(*addr, timeout)
	var resp struct {
		Profiles []prof.Artifact   `json:"profiles"`
		Errors   map[string]string `json:"errors"`
	}
	body := map[string]any{"kind": *kind, "seconds": *seconds, "fleet": *fleetWide}
	if err := c.postJSON("/v1/profiles", body, &resp); err != nil {
		fail(err)
	}
	nonEmpty := 0
	for _, a := range resp.Profiles {
		if a.SizeBytes > 0 {
			nonEmpty++
		}
		fmt.Printf("captured %s  %s  %d bytes  on %s\n",
			a.ID, a.Kind, a.SizeBytes, a.Instance)
	}
	for peer, msg := range resp.Errors {
		fmt.Fprintf(os.Stderr, "qlecprof: peer %s: %s\n", peer, msg)
	}
	if nonEmpty < *minCaptures {
		fmt.Fprintf(os.Stderr, "qlecprof: %d non-empty captures, need %d\n", nonEmpty, *minCaptures)
		os.Exit(1)
	}
}

func cmdFetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "qlecd base URL")
	id := fs.String("id", "latest", "artifact ID (\"latest\" = newest)")
	out := fs.String("o", "", "write here instead of stdout")
	profFlags := cli.ProfileFlags(fs)
	fs.Parse(args)
	if err := profFlags.Start(); err != nil {
		fail(err)
	}
	defer profFlags.Stop()
	c := newClient(*addr, 30*time.Second)
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+"/v1/profiles/"+*id, nil)
	if err != nil {
		fail(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		fail(httpErr(resp))
	}
	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		dst = f
	}
	n, err := io.Copy(dst, resp.Body)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "fetched %s (%s): %d bytes -> %s\n",
			resp.Header.Get("X-Profile-ID"), resp.Header.Get("X-Profile-Kind"), n, *out)
	}
}
