// Command jammctl is the JAMM operator CLI — the command-line
// equivalent of the paper's Sensor Data and Sensor Control GUIs.
//
//	jammctl lookup -dir 127.0.0.1:3890 -filter '(type=cpu)'
//	jammctl list -gw 127.0.0.1:9200
//	jammctl query -gw 127.0.0.1:9200 -sensor cpu -event VMSTAT_SYS_TIME
//	jammctl subscribe -gw 127.0.0.1:9200 -sensor cpu -mode change
//	jammctl summary -gw 127.0.0.1:9200 -sensor cpu -event VMSTAT_SYS_TIME
//	jammctl history -gw 127.0.0.1:9200 -sensor cpu -from 30m -to now
//	jammctl sensor-start -control 127.0.0.1:9201 -name netstat
//	jammctl sensor-stop  -control 127.0.0.1:9201 -name netstat
//	jammctl status -control 127.0.0.1:9201
//
// history queries the gateway's persistent archive (gatewayd -archive)
// over the wire: -from/-to accept a ULM DATE (20000330112320.957943),
// an RFC 3339 timestamp, "now", or a duration meaning that long ago
// ("30m", "24h").
//
// trace reconstructs one sampled record's path across the site from the
// gateways' ops endpoints (gatewayd -ops-addr): every hop that touched
// the record reports its stage and latency, merged and printed in hop
// order.
//
//	jammctl trace -id 4f2a9c01d3e8b756 -ops 127.0.0.1:9190 -ops 127.0.0.1:9191
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jamm/internal/activation"
	"jamm/internal/aggregate"
	"jamm/internal/consumer"
	"jamm/internal/directory"
	"jamm/internal/gateway"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: jammctl <lookup|list|query|subscribe|summary|agg|history|site|trace|sensor-start|sensor-stop|status> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "lookup":
		cmdLookup(args)
	case "list":
		cmdList(args)
	case "query":
		cmdQuery(args)
	case "subscribe":
		cmdSubscribe(args)
	case "summary":
		cmdSummary(args)
	case "agg":
		cmdAgg(args)
	case "history":
		cmdHistory(args)
	case "site":
		cmdSite(args)
	case "trace":
		cmdTrace(args)
	case "sensor-start", "sensor-stop":
		cmdControl(strings.TrimPrefix(cmd, "sensor-"), args)
	case "status":
		cmdStatus(args)
	default:
		usage()
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "jammctl:", err)
	os.Exit(1)
}

func cmdLookup(args []string) {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	dir := fs.String("dir", "127.0.0.1:3890", "directory server address")
	base := fs.String("base", "ou=sensors,o=jamm", "search base DN")
	filter := fs.String("filter", "", "LDAP filter (default all sensors)")
	fs.Parse(args) //nolint:errcheck
	cli := directory.NewClient("jammctl", *dir)
	locs, err := consumer.Discover(cli, directory.DN(*base), *filter)
	if err != nil {
		die(err)
	}
	for _, l := range locs {
		fmt.Printf("%-16s %-10s host=%-20s gateway=%s\n", l.Sensor, l.Type, l.Host, l.Gateway)
	}
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	gw := fs.String("gw", "127.0.0.1:9200", "gateway address")
	fs.Parse(args) //nolint:errcheck
	c := gateway.NewClient("jammctl", *gw)
	defer c.Close()
	infos, err := c.List()
	if err != nil {
		die(err)
	}
	for _, s := range infos {
		fmt.Printf("%-16s %-10s host=%-20s interval=%-8s consumers=%d published=%d\n",
			s.Name, s.Type, s.Host, s.Interval, s.Consumers, s.Published)
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	gw := fs.String("gw", "127.0.0.1:9200", "gateway address")
	sensor := fs.String("sensor", "", "sensor name")
	event := fs.String("event", "", "event type")
	fs.Parse(args) //nolint:errcheck
	c := gateway.NewClient("jammctl", *gw)
	defer c.Close()
	rec, found, err := c.Query(*sensor, *event)
	if err != nil {
		die(err)
	}
	if !found {
		fmt.Println("(no event)")
		return
	}
	fmt.Println(rec)
}

func cmdSubscribe(args []string) {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	gw := fs.String("gw", "127.0.0.1:9200", "gateway address")
	sensor := fs.String("sensor", "", "sensor name (empty = all)")
	events := fs.String("events", "", "comma-separated event filter")
	mode := fs.String("mode", "all", "delivery mode: all, change, threshold")
	field := fs.String("field", "", "watched field (default VAL)")
	above := fs.Float64("above", 0, "threshold: deliver on upward crossings of this value")
	delta := fs.Float64("delta", 0, "threshold: deliver on relative change exceeding this fraction")
	format := fs.String("format", "ulm", "payload format: ulm, xml, binary")
	fs.Parse(args) //nolint:errcheck

	m, err := gateway.ParseMode(*mode)
	if err != nil {
		die(err)
	}
	req := gateway.Request{Sensor: *sensor, Mode: m, Field: *field, DeltaFrac: *delta}
	if *events != "" {
		req.Events = strings.Split(*events, ",")
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "above" {
			req.Above = gateway.Float64(*above)
		}
	})
	stop, err := gateway.NewClient("jammctl", *gw).Subscribe(req, *format, func(rec ulm.Record) {
		fmt.Println(rec)
	})
	if err != nil {
		die(err)
	}
	defer stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// cmdAgg opens ONE aggregate subscription per named gateway — the
// `_agg/` topic-prefix form — and prints the merged site-wide view as
// per-gateway aggregate records arrive. This replaces subscribing to
// every raw sensor: the wire carries a few records per gateway per
// emit period no matter how many sensors the site monitors.
//
//	jammctl agg -gw 127.0.0.1:9100,127.0.0.1:9101
func cmdAgg(args []string) {
	fs := flag.NewFlagSet("agg", flag.ExitOnError)
	gws := fs.String("gw", "127.0.0.1:9200", "comma-separated gateway addresses (each gatewayd run with -aggregate, or mirroring a site's _agg/ topics via -peer-agg)")
	raw := fs.Bool("raw", false, "print the raw _agg/ records instead of the merged site view")
	fs.Parse(args) //nolint:errcheck

	site := aggregate.NewSite()
	req := gateway.Request{Sensor: aggregate.TopicPrefix, Prefix: true}
	var stops []func()
	for _, addr := range strings.Split(*gws, ",") {
		stop, err := gateway.NewClient("jammctl", addr).Subscribe(req, "ulm", func(rec ulm.Record) {
			if *raw {
				fmt.Println(rec)
				return
			}
			if site.Observe(rec) {
				printSiteView(site.View())
			}
		})
		if err != nil {
			die(err)
		}
		stops = append(stops, stop)
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

func printSiteView(v aggregate.SiteView) {
	var b strings.Builder
	fmt.Fprintf(&b, "site gateways=%d", v.Gateways)
	if v.Count != nil {
		fmt.Fprintf(&b, " | rate=%.1f/s count=%d sensors=%d window=%s",
			v.Count.Rate, v.Count.Count, v.Count.Sensors, v.Count.Window)
	}
	if v.TopK != nil && len(v.TopK.Top) > 0 {
		b.WriteString(" | top:")
		for _, sc := range v.TopK.Top {
			fmt.Fprintf(&b, " %s:%d", sc.Sensor, sc.Count)
		}
	}
	if v.Quantile != nil && v.Quantile.N > 0 {
		fmt.Fprintf(&b, " | %s n=%d p50=%.4g p99=%.4g",
			v.Quantile.Field, v.Quantile.N, v.Quantile.P50, v.Quantile.P99)
	}
	fmt.Println(b.String())
}

func cmdSummary(args []string) {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	gw := fs.String("gw", "127.0.0.1:9200", "gateway address")
	sensor := fs.String("sensor", "", "sensor name")
	event := fs.String("event", "", "event type")
	field := fs.String("field", "VAL", "summarized field")
	fs.Parse(args) //nolint:errcheck
	c := gateway.NewClient("jammctl", *gw)
	defer c.Close()
	pts, err := c.Summary(*sensor, *event, *field)
	if err != nil {
		die(err)
	}
	for _, p := range pts {
		fmt.Printf("%-8s avg=%-10.3f min=%-10.3f max=%-10.3f n=%d\n",
			p.Window, p.Avg, p.Min, p.Max, p.Count)
	}
}

// parseWhen turns a -from/-to value into a timestamp: "" = unbounded,
// "now" = now, a bare duration = that long ago, else a ULM DATE or
// RFC 3339 timestamp.
func parseWhen(s string) (time.Time, error) {
	switch {
	case s == "":
		return time.Time{}, nil
	case s == "now":
		return time.Now().UTC(), nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d < 0 {
			d = -d
		}
		return time.Now().UTC().Add(-d), nil
	}
	if t, err := ulm.ParseDate(s); err == nil {
		return t, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t.UTC(), nil
	}
	return time.Time{}, fmt.Errorf("bad time %q (want ULM DATE, RFC 3339, a duration like 30m, or now)", s)
}

func cmdHistory(args []string) {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	gw := fs.String("gw", "127.0.0.1:9200", "gateway address")
	sensor := fs.String("sensor", "", "sensor name (empty = all sensors)")
	events := fs.String("events", "", "comma-separated event filter")
	from := fs.String("from", "", "range start: ULM DATE, RFC 3339, a duration ago (30m), or now")
	to := fs.String("to", "", "range end (exclusive), same forms; empty = unbounded")
	batch := fs.Int("batch", 0, "records per response frame (0 = server default)")
	showSensor := fs.Bool("topics", false, "prefix each record with its sensor topic")
	fs.Parse(args) //nolint:errcheck

	hr := gateway.HistoryRequest{Sensor: *sensor, BatchMax: *batch}
	if *events != "" {
		hr.Events = strings.Split(*events, ",")
	}
	var err error
	if hr.From, err = parseWhen(*from); err != nil {
		die(err)
	}
	if hr.To, err = parseWhen(*to); err != nil {
		die(err)
	}
	recs, err := gateway.NewClient("jammctl", *gw).History(hr)
	if err != nil {
		die(err)
	}
	for _, tr := range recs {
		if *showSensor {
			fmt.Printf("%s\t%s\n", tr.Sensor, tr.Rec)
		} else {
			fmt.Println(tr.Rec)
		}
	}
}

// cmdSite is the replicated-site health view: one row per gateway of
// the ring — up/down, how many sensors it serves as primary vs. holds
// as replica mirrors, and what its archive covers. An operator watches
// a failover (mirrored counts at the survivors) or a rejoin
// (anti-entropy growing the archive row back) from here.
func cmdSite(args []string) {
	fs := flag.NewFlagSet("site", flag.ExitOnError)
	ringFlag := fs.String("ring", "", "comma-separated gateway addresses of the site")
	var gws, opsAddrs []string
	fs.Func("gw", "gateway address (repeatable; alternative to -ring)", func(v string) error { gws = append(gws, v); return nil })
	fs.Func("ops", "ops endpoint address paired positionally with the gateway list; its /readyz is checked and a not-ready gateway fails the site (repeatable)", func(v string) error { opsAddrs = append(opsAddrs, v); return nil })
	fs.Parse(args) //nolint:errcheck
	if *ringFlag != "" {
		gws = append(gws, strings.Split(*ringFlag, ",")...)
	}
	if len(gws) == 0 {
		die(fmt.Errorf("site: no gateways (use -ring or -gw)"))
	}
	if len(opsAddrs) > 0 && len(opsAddrs) != len(gws) {
		die(fmt.Errorf("site: %d -ops addresses for %d gateways (pair them positionally)", len(opsAddrs), len(gws)))
	}
	down := 0
	for i, addr := range gws {
		// Ping, List and Coverage share the one connection c keeps, until
		// the command returns.
		c := gateway.NewClient("jammctl", addr)
		defer c.Close()
		if err := c.Ping(); err != nil {
			fmt.Printf("%-22s DOWN  (%v)\n", addr, err)
			down++
			continue
		}
		// A gateway can answer the wire yet be degraded — directory
		// unreachable, bridge down. The ops /readyz knows; a not-ready
		// gateway names its failing checks and fails the site.
		ready := ""
		if len(opsAddrs) > 0 {
			if err := readyz(opsAddrs[i]); err != nil {
				ready = fmt.Sprintf("  NOT READY: %v", err)
				down++
			}
		}
		infos, err := c.List()
		if err != nil {
			die(err)
		}
		primary, mirrored := 0, 0
		for _, s := range infos {
			if s.Mirrored {
				mirrored++
			} else {
				primary++
			}
		}
		var archive string
		spans, err := c.Coverage("")
		switch {
		case err != nil:
			archive = "archive=off"
		case len(spans) == 0:
			archive = "archive=empty"
		default:
			var recs int64
			for _, sp := range spans {
				recs += sp.Records
			}
			first, last := spans[0].From, spans[0].To
			for _, sp := range spans[1:] {
				if sp.From.Before(first) {
					first = sp.From
				}
				if sp.To.After(last) {
					last = sp.To
				}
			}
			archive = fmt.Sprintf("archive=%d recs %s..%s", recs,
				first.UTC().Format(time.RFC3339), last.UTC().Format(time.RFC3339))
		}
		fmt.Printf("%-22s up    sensors=%d mirrored=%d %s%s\n", addr, primary, mirrored, archive, ready)
	}
	if down > 0 {
		os.Exit(1)
	}
}

// readyz round-trips one gateway's ops /readyz. A non-200 answer
// becomes an error carrying the endpoint's failing-check lines, so the
// operator sees which check failed, not just that one did.
func readyz(addr string) error {
	cli := &http.Client{Timeout: 5 * time.Second}
	resp, err := cli.Get("http://" + addr + "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		detail := strings.Join(strings.Fields(string(body)), " ")
		if detail == "" {
			detail = resp.Status
		}
		return fmt.Errorf("%s", detail)
	}
	return nil
}

// cmdTrace reconstructs one sampled record's path across the site: ask
// every gateway's ops endpoint for its trace events under the id, merge,
// and print in hop order with per-stage latencies.
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	id := fs.String("id", "", "trace id: the 16 hex digits of a record's JAMM.TRACE attribute")
	timeout := fs.Duration("timeout", 5*time.Second, "per-endpoint fetch timeout")
	var ops []string
	fs.Func("ops", "gateway ops endpoint address (repeatable; list every gateway the record may have crossed)", func(v string) error { ops = append(ops, v); return nil })
	fs.Parse(args) //nolint:errcheck
	tid, err := strconv.ParseUint(*id, 16, 64)
	if *id == "" || err != nil {
		die(fmt.Errorf("trace: bad -id %q (want the 16 hex digits before the dash in JAMM.TRACE)", *id))
	}
	if len(ops) == 0 {
		die(fmt.Errorf("trace: no ops endpoints (use -ops, repeatable)"))
	}
	evs, errs := telemetry.GatherTrace(ops, tid, *timeout)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "jammctl: trace:", e)
	}
	evs = telemetry.MergeTraceEvents(evs)
	if len(evs) == 0 {
		fmt.Printf("trace %016x: no events (unsampled id, evicted from the ring, or wrong gateways)\n", tid)
		os.Exit(1)
	}
	fmt.Printf("%-4s %-8s %-16s %-24s %-30s %s\n", "HOP", "STAGE", "NODE", "SENSOR", "AT", "LATENCY")
	for _, e := range evs {
		fmt.Printf("%-4d %-8s %-16s %-24s %-30s %s\n",
			e.Hop, e.Stage, e.Node, e.Sensor, e.At.UTC().Format(time.RFC3339Nano), time.Duration(e.LatencyNS))
	}
}

func cmdControl(method string, args []string) {
	fs := flag.NewFlagSet(method, flag.ExitOnError)
	control := fs.String("control", "127.0.0.1:9201", "jammd control address")
	name := fs.String("name", "", "sensor name")
	fs.Parse(args) //nolint:errcheck
	cli := activation.Dial(*control, nil)
	defer cli.Close()
	cli.SetTimeout(10 * time.Second)
	if _, err := cli.Invoke("manager", method, activation.Args{"name": *name}); err != nil {
		die(err)
	}
	fmt.Printf("%s %s: ok\n", method, *name)
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	control := fs.String("control", "127.0.0.1:9201", "jammd control address")
	fs.Parse(args) //nolint:errcheck
	cli := activation.Dial(*control, nil)
	defer cli.Close()
	out, err := cli.Invoke("manager", "status", nil)
	if err != nil {
		die(err)
	}
	fmt.Print(out)
}
