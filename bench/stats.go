package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th (0..1) order statistic of vals by nearest
// rank, the same rule internal/benchreg uses for its p99 column. It
// returns 0 for an empty sample so a failed run still prints a number.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// overSegments reduces each segment with f and reports the median of the
// per-segment results, so one slow stretch of a shared disk moves the
// recorded min/max but not the reported value. Empty segments are
// skipped.
func overSegments(segs [][]float64, f func([]float64) float64) metric {
	var per []float64
	n := 0
	for _, s := range segs {
		if len(s) > 0 {
			n += len(s)
			per = append(per, f(s))
		}
	}
	return ofValues(per, n)
}

// ofValues reports the median, smallest and largest of per-segment
// values that n samples produced.
func ofValues(per []float64, n int) metric {
	if len(per) == 0 {
		return metric{}
	}
	sorted := append([]float64(nil), per...)
	sort.Float64s(sorted)
	return metric{Value: percentile(sorted, 0.5), Min: sorted[0], Max: sorted[len(sorted)-1], N: n}
}

func pct(p float64) func([]float64) float64 {
	return func(v []float64) float64 { return percentile(v, p) }
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It has been 100 on every Linux port since 2.6.
const clockTick = 10 * time.Millisecond

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may itself contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("procfs: no command field in %q", stat)
	}
	fields := strings.Fields(stat[end+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("procfs: short stat line %q", stat)
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseStatusHWM extracts VmHWM (peak resident set) in bytes from the
// text of /proc/<pid>/status.
func parseStatusHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("procfs: odd VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}

// procCPU reads the user+system time process pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// procHWM reads the peak resident set of process pid, in bytes.
func procHWM(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(data))
}
