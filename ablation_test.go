// Ablation benchmarks for the substrate's design choices: which of its
// mechanisms are load-bearing for the paper's results — the §6 Iperf
// collapse (E1 in bench_test.go) and the cost of monitoring (§2.3).
// Each prints a sweep once, then times a representative configuration.
package jamm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jamm/internal/core"
	"jamm/internal/sim"
	"jamm/internal/simnet"
)

// ablationIperf runs the E1 WAN topology with explicit receiver and
// TCP parameters.
func ablationIperf(streams int, minRTO time.Duration, overhead, ringBytes float64) float64 {
	sched := sim.NewScheduler(benchEpoch)
	net := simnet.New(sched, rand.New(rand.NewSource(1)), 10*time.Millisecond)
	src := net.AddHost("s", simnet.HostConfig{RecvCapacityBps: 1e9})
	dst := net.AddHost("d", simnet.HostConfig{
		RecvCapacityBps:   200e6,
		PerSocketOverhead: overhead,
		RingBytes:         ringBytes,
	})
	w := net.AddRouter("w")
	e := net.AddRouter("e")
	net.Connect(src, w, simnet.RateOC12, time.Millisecond)
	net.Connect(w, e, simnet.RateOC48, 33*time.Millisecond)
	net.Connect(e, dst, simnet.RateGigE, time.Millisecond)

	flows := make([]*simnet.Flow, streams)
	for i := range flows {
		f, err := net.OpenFlow(src, 40000+i, dst, 5001+i, simnet.FlowConfig{Rwnd: 2e6, MinRTO: minRTO})
		if err != nil {
			panic(err)
		}
		f.SetUnlimited(true)
		flows[i] = f
	}
	sched.RunFor(30 * time.Second)
	var bytes float64
	for _, f := range flows {
		bytes += float64(f.Stats().Delivered)
		f.Close()
	}
	return bytes * 8 / 30 / 1e6 // Mbit/s
}

// BenchmarkAblationMinRTO shows the RFC 2988 1-second minimum RTO is
// load-bearing for the §6 collapse: with a modern sub-RTT minimum, the
// stalls shrink and the four-stream aggregate partially recovers.
func BenchmarkAblationMinRTO(b *testing.B) {
	reportOnce("ablation-rto", func() {
		fmt.Println("--- Ablation: minimum RTO vs the 4-stream WAN collapse ---")
		fmt.Printf("%-12s %-22s\n", "min RTO", "4-stream aggregate")
		for _, rto := range []time.Duration{time.Second, 500 * time.Millisecond, 200 * time.Millisecond} {
			mbps := ablationIperf(4, rto, 2.0, simnet.DefaultRingBytes)
			fmt.Printf("%-12s %6.0f Mbit/s\n", rto, mbps)
		}
		fmt.Printf("period-correct 1 s RTO (RFC 2988, 2000) is what turns loss into stalls.\n")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ablationIperf(4, time.Second, 2.0, simnet.DefaultRingBytes)
	}
}

// BenchmarkAblationReceiverModel sweeps the per-socket overhead — the
// NIC/driver interrupt cost the paper suspected ("we believe it has
// something to do with the amount of load the gigabit ethernet card and
// device driver place on the system").
func BenchmarkAblationReceiverModel(b *testing.B) {
	reportOnce("ablation-recv", func() {
		fmt.Println("--- Ablation: receiver per-socket overhead vs stream scaling ---")
		fmt.Printf("%-10s %-14s %-14s\n", "overhead", "1 stream", "4 streams")
		for _, ov := range []float64{0, 0.5, 1.2, 2.0} {
			one := ablationIperf(1, time.Second, ov, simnet.DefaultRingBytes)
			four := ablationIperf(4, time.Second, ov, simnet.DefaultRingBytes)
			fmt.Printf("%-10.1f %6.0f Mbit/s %6.0f Mbit/s\n", ov, one, four)
		}
		fmt.Printf("zero overhead removes the anomaly entirely: the collapse is a receiver\n")
		fmt.Printf("effect, not a network effect — the paper's conclusion.\n")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ablationIperf(4, time.Second, 0, simnet.DefaultRingBytes)
	}
}

// BenchmarkAblationRingSize sweeps the receive-ring burst threshold:
// large rings absorb multi-socket window bursts and prevent the
// degradation from ever tripping.
func BenchmarkAblationRingSize(b *testing.B) {
	reportOnce("ablation-ring", func() {
		fmt.Println("--- Ablation: receive-ring burst threshold vs the collapse ---")
		fmt.Printf("%-12s %-14s\n", "ring", "4 streams")
		for _, ring := range []float64{50e3, 150e3, 1e6, 4e6} {
			four := ablationIperf(4, time.Second, 2.0, ring)
			fmt.Printf("%-12.0f %6.0f Mbit/s\n", ring, four)
		}
		fmt.Printf("a ring larger than the per-socket windows absorbs the bursts; 2000-era\n")
		fmt.Printf("gigabit NICs did not have one.\n")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ablationIperf(4, time.Second, 2.0, 150e3)
	}
}

// BenchmarkAblationMonitoringOverhead measures the cost of watching:
// the Matisse run with and without the JAMM plane, comparing frame
// throughput — "it is critical that the act of monitoring does not
// affect the systems being monitored" (§2.3).
func BenchmarkAblationMonitoringOverhead(b *testing.B) {
	reportOnce("ablation-monitor", func() {
		bare, err := core.RunMatisse(core.MatisseOptions{Servers: 1, Frames: 120, Duration: 60 * time.Second, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		monitored, err := core.RunMatisse(core.MatisseOptions{Servers: 1, Frames: 120, Duration: 60 * time.Second, Seed: 7, Monitor: true})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Println("--- Ablation: does monitoring perturb the monitored system? ---")
		fmt.Printf("%-22s %-12s %-12s\n", "", "bare", "monitored")
		fmt.Printf("%-22s %-12.1f %-12.1f\n", "mean fps", bare.MeanFPS(), monitored.MeanFPS())
		fmt.Printf("%-22s %-12d %-12d\n", "frames completed", len(bare.Stats), len(monitored.Stats))
		fmt.Printf("sensor overhead is modelled (0.2%% CPU per sensor, gateway off-host);\n")
		fmt.Printf("the frame pipeline is statistically unaffected.\n")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMatisse(core.MatisseOptions{Servers: 1, Frames: 40, Duration: 30 * time.Second, Seed: int64(i), Monitor: true}); err != nil {
			b.Fatal(err)
		}
	}
}
