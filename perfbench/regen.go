package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The commands that regenerate the paper's results, run with default
// flags.
var regenCmds = []string{"paperrepro", "lossfig", "fleetfig"}

// Goldens captured on an idle host. fleetfig's output and lossfig's
// analytic table do not depend on the host; lossfig's simulated rows
// do, because its ARQ retransmit timer runs on the wall clock.
var (
	//go:embed golden/fleetfig.txt
	goldenFleetfig string
	//go:embed golden/lossfig.txt
	goldenLossfig string
)

// buildCmds builds the regeneration commands into binDir.
func buildCmds(ctx context.Context, root, binDir string) error {
	args := []string{"build", "-o", binDir + "/"}
	for _, c := range regenCmds {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// cmdRun is one command's run: wall and CPU seconds, peak RSS and
// whether its output passed its check.
type cmdRun struct {
	name     string
	wall     float64
	cpu      float64
	rssMB    float64
	diverged int // lossfig: simulated rows that differ from the idle golden
	err      error
}

// regenRun is one regeneration: the three commands in sequence.
type regenRun struct {
	wall float64
	cmds []cmdRun
}

func regen(ctx context.Context, root, binDir string, rec *recorder) regenRun {
	var r regenRun
	t0 := time.Now()
	rec.begin("regen")
	for _, name := range regenCmds {
		rec.begin("cmd." + name)
		r.cmds = append(r.cmds, runCmd(ctx, root, binDir, name))
		rec.end()
	}
	rec.end()
	r.wall = time.Since(t0).Seconds()
	return r
}

func runCmd(ctx context.Context, root, binDir, name string) cmdRun {
	c := cmdRun{name: name}
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, binDir+"/"+name)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	c.wall = time.Since(t0).Seconds()
	if ps := cmd.ProcessState; ps != nil {
		c.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		c.err = fmt.Errorf("%s: %v: %s", name, err, strings.TrimSpace(stderr.String()))
		return c
	}
	out := stdout.String()
	switch name {
	case "paperrepro":
		if !strings.Contains(out, "14/14 checks passed") {
			c.err = fmt.Errorf("paperrepro: did not print 14/14 checks passed")
		}
	case "fleetfig":
		if out != goldenFleetfig {
			c.err = fmt.Errorf("fleetfig: output differs from the golden")
		}
	case "lossfig":
		fixed, rows := splitLossfig(out)
		gFixed, gRows := splitLossfig(goldenLossfig)
		if fixed != gFixed {
			c.err = fmt.Errorf("lossfig: analytic table differs from the golden")
		}
		c.diverged = max(len(rows), len(gRows)) - min(len(rows), len(gRows))
		for i := 0; i < min(len(rows), len(gRows)); i++ {
			if rows[i] != gRows[i] {
				c.diverged++
			}
		}
	}
	return c
}

// splitLossfig separates lossfig's output into the host-independent
// text (the analytic table, headers and takeaway) and the rows of the
// chaos+ARQ simulation section, each row with its ledger line.
func splitLossfig(out string) (fixed string, rows []string) {
	var b strings.Builder
	sim := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "chaos+ARQ link simulation") {
			sim = true
		}
		f := strings.Fields(line)
		switch {
		case sim && len(f) > 0 && f[0] == "ledger/tx:" && len(rows) > 0:
			rows[len(rows)-1] += "\n" + line
		case sim && len(f) > 0 && isFloat(f[0]):
			rows = append(rows, line)
		default:
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), rows
}

func isFloat(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// setUpRegen builds the commands once untimed (the compile), then times
// reps up-to-date builds and returns their median in seconds.
func setUpRegen(ctx context.Context, root, binDir string, reps int) (float64, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	if err := buildCmds(ctx, root, binDir); err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := buildCmds(ctx, root, binDir); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}
