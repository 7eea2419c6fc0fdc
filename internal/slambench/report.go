package slambench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// WriteCSV emits the per-frame records of a summary as CSV, one row per
// frame, suitable for external plotting of the paper's figures.
func WriteCSV(w io.Writer, s *Summary) error {
	if _, err := fmt.Fprintln(w, "frame,time,tracked,ate,wall_ms,ops,bytes,sim_latency_ms,sim_energy_j,sim_power_w"); err != nil {
		return err
	}
	for _, r := range s.Records {
		tracked := 0
		if r.Tracked {
			tracked = 1
		}
		if _, err := fmt.Fprintf(w, "%d,%.6f,%d,%.6f,%.3f,%d,%d,%.3f,%.6f,%.3f\n",
			r.Index, r.Time, tracked, r.ATE,
			float64(r.WallTime.Microseconds())/1000,
			r.Cost.Ops, r.Cost.Bytes,
			r.SimLatency*1000, r.SimEnergy, r.SimPower); err != nil {
			return err
		}
	}
	return nil
}

// KernelBreakdown aggregates per-kernel cost shares over a run and
// renders them as a table — the profiling view SLAMBench exposes for
// co-design studies.
func KernelBreakdown(w io.Writer, s *Summary) error {
	totals := map[string]int64{}
	var grand int64
	for _, r := range s.Records {
		for k, c := range r.KernelCosts {
			totals[k] += c.Ops
			grand += c.Ops
		}
	}
	if grand == 0 {
		_, err := fmt.Fprintln(w, "no kernel costs recorded")
		return err
	}
	// Stable order: sort keys.
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sortStrings(keys)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "kernel\tGops\tshare")
	for _, k := range keys {
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f%%\n",
			k, float64(totals[k])/1e9, 100*float64(totals[k])/float64(grand))
	}
	return tw.Flush()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// FormatSummary renders a human-readable multi-line report of one run.
func FormatSummary(s *Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system:    %s\n", s.System)
	fmt.Fprintf(&b, "sequence:  %s (%d frames)\n", s.Sequence, s.Frames)
	fmt.Fprintf(&b, "tracked:   %.1f%%\n", s.TrackedFraction*100)
	fmt.Fprintf(&b, "accuracy:  max ATE %.4f m | RMSE %.4f m | mean %.4f m\n",
		s.ATE.Max, s.ATE.RMSE, s.ATE.Mean)
	fmt.Fprintf(&b, "speed:     %.1f FPS wall (%.1f ms/frame)\n",
		s.WallFPS, float64(s.WallMeanFrame.Microseconds())/1000)
	if s.Device != "" {
		rt := "no"
		if s.MeetsRealTime() {
			rt = "yes"
		}
		fmt.Fprintf(&b, "device:    %s → %.1f FPS | %.2f W | %.2f J total | real-time: %s\n",
			s.Device, s.SimFPS, s.SimMeanPower, s.SimTotalEnergy, rt)
	}
	return b.String()
}
