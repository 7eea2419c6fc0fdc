// Mobile: compare the default and a tuned KinectFusion configuration on
// a handful of named phone profiles from the 83-device catalogue — the
// per-device view behind Figure 3's speed-up distribution.
//
//	go run ./examples/mobile
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"slamgo/internal/core"
	"slamgo/internal/device"
	"slamgo/internal/imgproc"
	"slamgo/internal/kfusion"
)

func main() {
	scale := core.Scale{Width: 160, Height: 120, Frames: 24, Noisy: true, Seed: 42}

	tuned := kfusion.DefaultConfig()
	tuned.VolumeResolution = 96
	tuned.ComputeSizeRatio = 4
	tuned.IntegrationRate = 2

	fig3, err := core.RunFig3(tuned, scale, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Pick the recognisable anchor devices out of the sweep.
	wanted := []string{
		"galaxy-s3", "nexus-4", "galaxy-s5", "note4",
		"nexus-6p", "galaxy-s7", "pixel-", "galaxy-s8", "pixel2",
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tyear\tdefault FPS\ttuned FPS\tspeed-up\treal-time (tuned)")
	for _, p := range fig3.Phones {
		for _, w := range wanted {
			if strings.HasPrefix(p.Device, w) {
				fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1fx\t%v\n",
					p.Device, p.Year, p.DefaultFPS, p.TunedFPS, p.Speedup,
					p.TunedFPS >= 30)
			}
		}
	}
	tw.Flush()

	fmt.Printf("\nacross all %d devices: mean %.1fx, median %.1fx, range %.1f-%.1fx\n",
		len(fig3.Phones), fig3.Mean, fig3.Median, fig3.Min, fig3.Max)

	// Show the power side on one device class using the device model
	// directly: what the XU3's DVFS points trade.
	fmt.Println("\nODROID-XU3 operating points (tuned config, one 50 Mop / 40 MB frame):")
	model := device.NewModel(device.OdroidXU3())
	for _, op := range model.Points() {
		m, err := model.AtPoint(op)
		if err != nil {
			continue
		}
		st := m.ExecuteFrame(imgproc.Cost{Ops: 50e6, Bytes: 40e6}, 1.0/30)
		fmt.Printf("  %-10s %6.1f FPS  %.2f W  deadline met: %v\n",
			op, 1/st.Latency, st.Power, st.MetDeadline)
	}
}
