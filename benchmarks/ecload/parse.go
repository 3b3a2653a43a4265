package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux the Go toolchain supports.
const clockTick = 100

// parseProcStat extracts user and system CPU time, in milliseconds, from
// the text of /proc/<pid>/stat. The command name (field 2) may hold spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(text string) (userMs, sysMs float64, err error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[end+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command, want >= 13", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut) * 1000 / clockTick, float64(st) * 1000 / clockTick, nil
}

// parseProcStatus extracts the peak resident set (VmHWM, kB) and the
// voluntary + involuntary context switches from /proc/<pid>/status text.
// Missing lines read 0 (kernel threads have no VmHWM).
func parseProcStatus(text string) (hwmKB, ctxSwitches int64) {
	for _, line := range strings.Split(text, "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue
		}
		switch key {
		case "VmHWM":
			hwmKB = n
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			ctxSwitches += n
		}
	}
	return hwmKB, ctxSwitches
}

// procSample is one process's resource use so far.
type procSample struct {
	UserMs, SysMs float64
	CtxSwitches   int64 // summed over every thread
	HWMMB         float64
}

func (a procSample) sub(b procSample) procSample {
	return procSample{a.UserMs - b.UserMs, a.SysMs - b.SysMs, a.CtxSwitches - b.CtxSwitches, a.HWMMB}
}

func (a procSample) add(b procSample) procSample {
	hwm := a.HWMMB
	if b.HWMMB > hwm {
		hwm = b.HWMMB
	}
	return procSample{a.UserMs + b.UserMs, a.SysMs + b.SysMs, a.CtxSwitches + b.CtxSwitches, hwm}
}

// readProc samples /proc for pid. The stat file covers the whole process;
// the status file's switch counters are per thread, so they are summed
// over /proc/<pid>/task/*.
func readProc(pid int) (procSample, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return procSample{}, err
	}
	var s procSample
	if s.UserMs, s.SysMs, err = parseProcStat(string(stat)); err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return procSample{}, err
	}
	hwm, _ := parseProcStatus(string(status))
	s.HWMMB = float64(hwm) / 1024
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return procSample{}, err
	}
	for _, t := range tasks {
		text, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		_, ctx := parseProcStatus(string(text))
		s.CtxSwitches += ctx
	}
	return s, nil
}

// parseProm reads Prometheus text exposition into series → value. Comment
// and malformed lines are skipped; the series name keeps its label set
// exactly as written (`name{op="put"}`).
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last field; a label value may itself hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// promSum adds every series whose name starts with prefix (all label sets
// of one metric family, e.g. every op of ecgate_shard_seconds_count).
func promSum(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			sum += v
		}
	}
	return sum
}
