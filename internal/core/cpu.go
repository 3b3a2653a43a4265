package core

import (
	"time"

	"ecarray/internal/sim"
)

// CPU models one node's core pool with user/kernel accounting and context-
// switch counting. The paper separates user-mode from kernel-mode cycles
// (§V-A: user-mode operations take 70-75% of total CPU cycles because the
// OSD pipeline runs in user space) and reports context switches per MB
// (§V-B); both metrics come from here.
type CPU struct {
	cores *sim.Resource
	cm    *CostModel

	userBusy   int64 // ns of user-mode core time
	kernelBusy int64 // ns of kernel-mode core time
	ctxSwitch  int64
	done       func([]sim.Stage) // account, bound once
}

func newCPU(e *sim.Engine, name string, cores int, cm *CostModel) *CPU {
	c := &CPU{cores: sim.NewResource(e, name+"/cpu", cores), cm: cm}
	c.done = c.account
	return c
}

// Exec runs a CPU burst: it occupies one core for user+kernel time, charges
// the per-mode accounting, and counts the context switches of dispatching
// the burst. Zero-duration bursts are free.
func (c *CPU) Exec(p *sim.Proc, user, kernel time.Duration) {
	var b [1]sim.Stage
	p.Hold(c.burst(b[:0], user, kernel)...)
}

// burst appends Exec's burst to a hold chain: no stage when it is free.
func (c *CPU) burst(ss []sim.Stage, user, kernel time.Duration) []sim.Stage {
	if user < 0 || kernel < 0 {
		panic("core: negative CPU burst")
	}
	if user+kernel == 0 {
		return ss
	}
	return append(ss, sim.Stage{Res: c.cores, N: 1, D: user + kernel, Done: c.done, Arg: int64(user)})
}

// account charges a finished burst (Arg is its user time).
func (c *CPU) account(rest []sim.Stage) {
	s := &rest[0]
	c.userBusy += s.Arg
	c.kernelBusy += int64(s.D) - s.Arg
	c.ctxSwitch += c.cm.ContextSwitchesPerExec
}

// Cores returns the pool size.
func (c *CPU) Cores() int { return c.cores.Capacity() }

// ContextSwitches returns switches since the last reset.
func (c *CPU) ContextSwitches() int64 { return c.ctxSwitch }

// BusySeconds returns cumulative (user, kernel) core-seconds since reset.
func (c *CPU) BusySeconds() (user, kernel float64) {
	return float64(c.userBusy) / 1e9, float64(c.kernelBusy) / 1e9
}

// ResetStats starts a new measurement window.
func (c *CPU) ResetStats() {
	c.userBusy, c.kernelBusy, c.ctxSwitch = 0, 0, 0
}
