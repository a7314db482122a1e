package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/rearguard"
	"repro/internal/vnet"
)

// E8: "It is to be expected that sites in a computer network will fail.
// … The solutions we have studied involve leaving a rear guard agent
// behind whenever execution moves from one site to another." (§5)
//
// Agents walk an L-hop itinerary whose tasks take a few milliseconds; with
// probability crashProb an intermediate site is crashed while the agent is
// somewhere on its journey (and restarted shortly after, as machines are).
// We measure the completion rate with and without rear guards, and the
// ablation sweeps the guard's failure-detection interval against recovery
// latency.

// E8Row is one fault-tolerance measurement.
type E8Row struct {
	Trials    int
	Completed int
}

// E8Survival runs `trials` guarded or unguarded journeys under crash
// injection. With probability crashProb per trial, the site the agent is
// executing on goes down mid-task (the agent vanishes with it, exactly the
// failure the rear guard exists for) and restarts 40ms later.
func E8Survival(ctx context.Context, trials, hops int, crashProb float64, guards bool, seed int64) (E8Row, error) {
	row := E8Row{Trials: trials}
	const callTimeout, restartDelay = 15 * time.Millisecond, 40 * time.Millisecond
	rng := rand.New(rand.NewSource(seed))

	for trial := 0; trial < trials; trial++ {
		sys := core.NewSystem(hops+1, core.SystemConfig{
			Seed: seed + int64(trial), CallTimeout: callTimeout,
		})
		managers := make([]*rearguard.Manager, sys.Len())

		crash := rng.Float64() < crashProb
		victim := sys.SiteAt(1 + rng.Intn(hops)).ID()
		arrived := make(chan struct{})
		crashed := make(chan struct{})
		var once sync.Once

		for i := 0; i < sys.Len(); i++ {
			m := rearguard.Install(sys.SiteAt(i))
			m.Interval = 5 * time.Millisecond
			m.Misses = 2
			managers[i] = m
			site := sys.SiteAt(i)
			site.Register("work", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
				if crash && mc.Site.ID() == victim &&
					!mc.Site.Cabinet().ContainsString("E8CRASHED", "once") {
					// Hold the agent here until the crash takes the site
					// (and the agent) down.
					once.Do(func() { close(arrived) })
					<-crashed
				}
				time.Sleep(time.Millisecond)
				bc.Ensure("TRAIL").PushString(string(mc.Site.ID()))
				return nil
			}))
		}
		itin := make([]vnet.SiteID, hops)
		for i := range itin {
			itin[i] = sys.SiteAt(i + 1).ID()
		}

		if crash {
			net := sys.Net
			vic := sys.Site(victim)
			go func() {
				<-arrived
				vic.Cabinet().AppendString("E8CRASHED", "once")
				net.Crash(victim)
				close(crashed)
				time.Sleep(restartDelay)
				net.Restart(victim)
			}()
		}

		ch, err := managers[0].Launch(ctx, rearguard.Config{
			ID: fmt.Sprintf("e8-%d", trial), Task: "work", Itinerary: itin, Guards: guards,
		}, nil)
		if err != nil {
			return row, err
		}
		// An unguarded agent dies with its site, and nothing relaunches
		// it: once the crash has landed, the victim is back after
		// restartDelay and any call the dead hop left open has timed out
		// one callTimeout later, so waiting the full bound only idles.
		var res rearguard.Result
		if crash && !guards {
			select {
			case res = <-ch:
			case <-crashed:
				res = rearguard.Wait(ch, restartDelay+callTimeout)
			case <-time.After(2 * time.Second):
			}
		} else {
			res = rearguard.Wait(ch, 2*time.Second)
		}
		if res.Completed {
			row.Completed++
		}
		sys.Wait()
	}
	return row, nil
}

// E8Ablation sweeps the guard detection interval and reports recovery
// latency: time from a crash landing mid-journey to journey completion.
type E8AblationRow struct {
	Interval  time.Duration
	Trials    int
	Completed int
	MeanTime  time.Duration
}

// E8IntervalAblation measures completion time under a guaranteed
// mid-journey crash for several detection intervals.
func E8IntervalAblation(ctx context.Context, trials, hops int, intervals []time.Duration, seed int64) ([]E8AblationRow, error) {
	var rows []E8AblationRow
	for _, interval := range intervals {
		row := E8AblationRow{Interval: interval, Trials: trials}
		var total time.Duration
		for trial := 0; trial < trials; trial++ {
			sys := core.NewSystem(hops+1, core.SystemConfig{
				Seed: seed + int64(trial), CallTimeout: 15 * time.Millisecond,
			})
			var managers []*rearguard.Manager
			blocker := make(chan struct{})
			for i := 0; i < sys.Len(); i++ {
				m := rearguard.Install(sys.SiteAt(i))
				m.Interval = interval
				m.Misses = 2
				managers = append(managers, m)
				site := sys.SiteAt(i)
				site.Register("work", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
					if mc.Site.ID() == "site-2" && !mc.Site.Cabinet().ContainsString("CRASHED", "once") {
						<-blocker // hold the agent here until the crash fires
					}
					bc.Ensure("TRAIL").PushString(string(mc.Site.ID()))
					return nil
				}))
			}
			itin := make([]vnet.SiteID, hops)
			for i := range itin {
				itin[i] = sys.SiteAt(i + 1).ID()
			}
			// Deterministic crash: site-2 goes down while the agent is
			// blocked inside its task there.
			go func() {
				time.Sleep(10 * time.Millisecond)
				sys.SiteAt(2).Cabinet().AppendString("CRASHED", "once")
				sys.Net.Crash("site-2")
				close(blocker)
				time.Sleep(50 * time.Millisecond)
				sys.Net.Restart("site-2")
			}()

			start := time.Now()
			ch, err := managers[0].Launch(ctx, rearguard.Config{
				ID: fmt.Sprintf("e8a-%d", trial), Task: "work", Itinerary: itin, Guards: true,
			}, nil)
			if err != nil {
				return nil, err
			}
			res := rearguard.Wait(ch, 5*time.Second)
			if res.Completed {
				row.Completed++
				total += time.Since(start)
			}
			sys.Wait()
		}
		if row.Completed > 0 {
			row.MeanTime = total / time.Duration(row.Completed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
