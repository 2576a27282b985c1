// Command nlv is the NetLogger visualization tool (§4.5) for
// terminals: it renders a ULM event log with the three nlv graph
// primitives — lifelines, loadlines, and points/scatter plots — with
// time on the x-axis and event types on the y-axis, like the paper's
// Figure 7.
//
//	nlv events.log                                  # auto-configured rows
//	nlv -lifeline MPLAY_START_READ_FRAME,MPLAY_END_READ_FRAME \
//	    -loadline VMSTAT_SYS_TIME:VAL:5 -points TCPD_RETRANSMITS events.log
//	nlv -scatter MPLAY_READ:SZ:10 events.log        # Figure 3 scatter
//	jammctl subscribe ... | nlv -follow -window 30s # real-time mode
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"jamm/internal/nlv"
	"jamm/internal/ulm"
)

func main() {
	width := flag.Int("width", 100, "chart width in columns")
	var lifelines, loadlines, points, scatters []string
	flag.Func("lifeline", "comma-separated ordered events forming one lifeline (repeatable)", func(v string) error { lifelines = append(lifelines, v); return nil })
	flag.Func("loadline", "EVENT:FIELD:HEIGHT loadline row (repeatable)", func(v string) error { loadlines = append(loadlines, v); return nil })
	flag.Func("points", "event rendered as point occurrences (repeatable)", func(v string) error { points = append(points, v); return nil })
	flag.Func("scatter", "EVENT:FIELD:HEIGHT scatter plot row (repeatable)", func(v string) error { scatters = append(scatters, v); return nil })
	follow := flag.Bool("follow", false, "real-time mode: read records from stdin, redraw continuously")
	window := flag.Duration("window", 30*time.Second, "follow mode: sliding time window")
	idField := flag.String("id", "", "ULM field carrying the lifeline object ID")
	flag.Parse()

	g := nlv.New(*width)
	if *idField != "" {
		g.SetIDField(*idField)
	}
	configured := false
	for _, l := range lifelines {
		g.AddLifeline(strings.Split(l, ",")...)
		configured = true
	}
	for _, l := range loadlines {
		ev, field, h := parseRow(l)
		g.AddLoadline(ev, field, h)
		configured = true
	}
	for _, p := range points {
		g.AddPoints(p)
		configured = true
	}
	for _, s := range scatters {
		ev, field, h := parseRow(s)
		g.AddScatter(ev, field, h)
		configured = true
	}

	if *follow {
		followMode(g, configured, *window)
		return
	}

	if flag.NArg() != 1 {
		log.Fatal("nlv: exactly one log file required (or -follow with stdin)")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatalf("nlv: %v", err)
	}
	defer f.Close()
	recs, err := ulm.ReadAll(f)
	if err != nil {
		log.Fatalf("nlv: %v", err)
	}
	if !configured {
		g = nlv.AutoLayout(*width, recs)
	}
	if err := g.Render(os.Stdout, recs); err != nil {
		log.Fatalf("nlv: %v", err)
	}
}

func parseRow(spec string) (event, field string, height int) {
	parts := strings.Split(spec, ":")
	event = parts[0]
	field = "VAL"
	height = 5
	if len(parts) > 1 && parts[1] != "" {
		field = parts[1]
	}
	if len(parts) > 2 {
		h, err := strconv.Atoi(parts[2])
		if err != nil {
			log.Fatalf("nlv: bad row height in %q", spec)
		}
		height = h
	}
	return event, field, height
}

func followMode(g *nlv.Graph, configured bool, window time.Duration) {
	tail := nlv.NewTail(window)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lastDraw := time.Now()
	var all []ulm.Record
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rec, err := ulm.Parse(line)
		if err != nil {
			continue
		}
		tail.Add(rec)
		if !configured {
			all = append(all, rec)
		}
		if time.Since(lastDraw) >= time.Second {
			lastDraw = time.Now()
			draw := g
			if !configured {
				draw = nlv.AutoLayout(100, all)
			}
			fmt.Print("\033[H\033[2J")   // clear screen, like nlv's scrolling canvas
			tail.Render(os.Stdout, draw) //nolint:errcheck
		}
	}
}
