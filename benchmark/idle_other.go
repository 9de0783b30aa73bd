//go:build !linux

package main

import "errors"

// Idle pollers need Linux's SCHED_IDLE; elsewhere a run goes without them.
func startIdlePollers() (func(), error) { return func() {}, nil }

func idlePoll(int) error { return errors.New("idle poller: Linux only") }
