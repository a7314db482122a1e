package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cash"
	"repro/internal/core"
)

// E5: "The recipient of such a briefcase has no guarantee that the sending
// agent has not already spent (a copy of) the ECUs being transferred. To
// solve this problem, a trusted validation agent is employed. … An attempt
// by an agent to spend retired or copied ECUs will be foiled if a
// validation agent is always consulted before any service is rendered."
// (§3)
//
// W wallets perform T transfers; an adversary replays an already-spent
// bill with probability p per transfer. We count double-spends accepted
// when every recipient validates (must be 0) versus when recipients accept
// bills at face value (approaches p·T).

// E5Row is one double-spending measurement.
type E5Row struct {
	WithValidator int // double spends accepted (must be 0)
	Naive         int // double spends accepted without validation
	FraudsCaught  int64
}

// E5DoubleSpend runs the double-spending experiment.
func E5DoubleSpend(ctx context.Context, transfers int, replayRate float64, seed int64) (E5Row, error) {
	sys := core.NewSystem(1, core.SystemConfig{Seed: seed})
	defer sys.Wait()
	bank, err := cash.NewBank(sys.SiteAt(0))
	if err != nil {
		return E5Row{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	var row E5Row

	// The adversary keeps copies of bills it has already spent.
	var spentCopies []cash.ECU
	naiveSeen := make(map[string]bool)

	for i := 0; i < transfers; i++ {
		var bill cash.ECU
		replay := len(spentCopies) > 0 && rng.Float64() < replayRate
		if replay {
			bill = spentCopies[rng.Intn(len(spentCopies))]
		} else {
			bill, err = bank.Mint.Issue(10)
			if err != nil {
				return row, err
			}
		}

		// Strategy A: recipient validates before rendering service.
		fresh, err := bank.Mint.Validate([]cash.ECU{bill}, nil)
		accepted := err == nil
		if accepted && !replay {
			spentCopies = append(spentCopies, bill) // adversary keeps a copy
			_ = fresh
		}
		if accepted && replay {
			row.WithValidator++ // a double spend slipped through
		}

		// Strategy B: naive recipient checks only that the bill *looks*
		// valid (well-formed, positive) — it cannot see mint state.
		if bill.Amount > 0 {
			if replay && naiveSeen[bill.Serial] {
				row.Naive++ // accepted a bill it (or anyone) already took
			}
			naiveSeen[bill.Serial] = true
		}
	}
	row.FraudsCaught = bank.Mint.Frauds()
	if row.WithValidator != 0 {
		return row, fmt.Errorf("e5: validator accepted %d double spends", row.WithValidator)
	}
	return row, nil
}

// E6: the audit protocol. "Participants document their actions so that a
// third party can perform an audit to find violations of a contract. An
// aggrieved agent requests an audit." (§3) We run purchases across every
// behavior and check the auditor's verdict against ground truth.

// E6Row is one audit-protocol measurement.
type E6Row struct {
	Behavior string
	Runs     int
	Correct  int // verdicts matching ground truth
}

// E6AuditMatrix runs `runs` purchases per behavior and scores the auditor.
func E6AuditMatrix(ctx context.Context, runs int) ([]E6Row, error) {
	behaviors := []struct {
		name string
		b    cash.Behavior
	}{
		{"honest", cash.HonestRun},
		{"buyer-skips-payment", cash.BuyerSkipsPayment},
		{"seller-denies-payment", cash.SellerDeniesPayment},
		{"seller-skips-delivery", cash.SellerSkipsDelivery},
		{"buyer-denies-receipt", cash.BuyerDeniesReceipt},
	}
	var rows []E6Row
	for _, tc := range behaviors {
		sys := core.NewSystem(1, core.SystemConfig{Seed: 6})
		bank, err := cash.NewBank(sys.SiteAt(0))
		if err != nil {
			return nil, err
		}
		row := E6Row{Behavior: tc.name, Runs: runs}
		for i := 0; i < runs; i++ {
			buyer := cash.NewParty(bank, fmt.Sprintf("b%d", i))
			seller := cash.NewParty(bank, fmt.Sprintf("s%d", i))
			funds, err := bank.Mint.IssueMany(100)
			if err != nil {
				return nil, err
			}
			buyer.Wallet.Add(funds...)
			out, err := cash.Purchase(ctx, bank, fmt.Sprintf("c-%s-%d", tc.name, i),
				"svc", 100, buyer, seller, tc.b)
			if err != nil {
				return nil, fmt.Errorf("e6 %s: %w", tc.name, err)
			}
			want := cash.ExpectedVerdict(tc.b)
			if tc.b == cash.HonestRun {
				if !out.Audited {
					row.Correct++ // honest runs need no audit at all
				}
			} else if out.Verdict == want {
				row.Correct++
			}
		}
		sys.Wait()
		rows = append(rows, row)
	}
	return rows, nil
}
