package main

import (
	"context"
	"time"
)

// openLoop offers n items from one goroutine on a fixed schedule: item i is
// due at start + i/rate. The generator sleeps until the next item is due,
// then sends every item that is due, in order, without waiting for the
// system to answer. rate <= 0 floods: every item is due at start and is
// sent as fast as send returns. It returns each item's due time and, for
// a paced schedule, how late the generator sent it.
func openLoop(ctx context.Context, n int, rate float64, send func(i int) error) (due []time.Time, lag []time.Duration, err error) {
	due = make([]time.Time, n)
	if rate > 0 {
		lag = make([]time.Duration, n)
	}
	start := time.Now()
	for i := 0; i < n; {
		d := start
		if rate > 0 {
			d = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		}
		now := time.Now()
		if wait := d.Sub(now); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, nil, ctx.Err()
			}
			continue
		}
		due[i] = d
		if lag != nil {
			lag[i] = now.Sub(d)
		}
		if err := send(i); err != nil {
			return nil, nil, err
		}
		i++
	}
	return due, lag, nil
}
