package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/mail"
	"repro/internal/stormcast"
)

// E9: StormCast (§6). A roaming collector agent filters observations at
// each sensor site versus a centralized puller; both must reach the same
// forecast. Varying the observation window exposes the crossover: for
// tiny windows the agent's fixed briefcase overhead loses; for realistic
// windows filtering at the data site wins by a growing factor.

// E9Row is one StormCast measurement.
type E9Row struct {
	AgentBytes int64
	PullBytes  int64
	Agree      bool
}

// E9StormCast measures one window size on a w×h grid.
func E9StormCast(ctx context.Context, w, h, window int) (E9Row, error) {
	field := stormcast.NewField(w, h, 1995, core.SystemConfig{})
	defer field.Sys.Wait()
	expert := stormcast.DefaultExpert()
	var row E9Row
	t := window + 10 // ensure full windows

	field.Sys.Net.ResetStats()
	roam, err := stormcast.RoamingForecast(ctx, field.Home, field.Sites, t, window, expert)
	if err != nil {
		return row, err
	}
	row.AgentBytes = field.Sys.Net.Stats().BytesTotal

	field.Sys.Net.ResetStats()
	central, err := stormcast.CentralForecast(ctx, field.Home, field.Sites, t, window, expert)
	if err != nil {
		return row, err
	}
	row.PullBytes = field.Sys.Net.Stats().BytesTotal
	row.Agree = roam.Storm == central.Storm
	return row, nil
}

// E10: agent mail (§6). M messages between users on distinct sites,
// measuring delivery integrity and receipt round trips.

// E10Row is one mail measurement.
type E10Row struct {
	Delivered int
}

// E10Mail sends messages pairwise between users and verifies mailboxes.
func E10Mail(ctx context.Context, users, messages int, receipts bool) (E10Row, error) {
	sys := core.NewSystem(users, core.SystemConfig{Seed: 10})
	defer sys.Wait()
	for i := 0; i < users; i++ {
		mail.InstallMailbox(sys.SiteAt(i))
	}
	var row E10Row
	for i := 0; i < messages; i++ {
		fromSite := sys.SiteAt(i % users)
		toSite := sys.SiteAt((i + 1) % users)
		msg := mail.Message{
			From:    fmt.Sprintf("u%d@%s", i%users, fromSite.ID()),
			To:      fmt.Sprintf("u%d@%s", (i+1)%users, toSite.ID()),
			Subject: fmt.Sprintf("msg-%d", i),
			Body:    "the weather in Tromsø is dramatic",
		}
		if err := mail.Send(ctx, fromSite, msg, receipts); err != nil {
			return row, err
		}
	}
	for u := 0; u < users; u++ {
		headers, err := mail.List(ctx, sys.SiteAt(0), fmt.Sprintf("u%d", u), sys.SiteAt(u).ID())
		if err != nil {
			return row, err
		}
		row.Delivered += len(headers)
	}
	if receipts {
		// Every sender must have gotten a receipt back.
		total := 0
		for i := 0; i < users; i++ {
			for u := 0; u < users; u++ {
				total += len(mail.Receipts(sys.SiteAt(i), fmt.Sprintf("u%d", u)))
			}
		}
		if total != messages {
			return row, fmt.Errorf("e10: %d receipts for %d messages", total, messages)
		}
	}
	return row, nil
}
