// Package cash implements TACOMA's electronic cash (section 3 of the
// paper): electronic currency units (ECUs), the trusted validation agent
// that defeats double spending by retiring and reissuing bills, wallets for
// agents, and the audit protocol that replaces transactions for fair
// exchange of funds and services. Charging runaway agents for cycles is
// guard.Meter's job.
//
// Following Chaum, each ECU is a record containing an amount and a large
// random number (the serial). Only serials minted by the mint are valid.
// Because "copy" is cheap in a computer system, a recipient must consult
// the validation agent before rendering service: the validator checks the
// serial, retires it, and returns an equivalent ECU with a fresh serial.
// A copied or already-spent ECU fails validation. The validator never
// learns the source or destination of a transfer, preserving
// untraceability.
package cash

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Cash errors.
var (
	// ErrInvalid is returned for ECUs whose serial was never minted.
	ErrInvalid = errors.New("cash: invalid ECU")
	// ErrSpent is returned for ECUs whose serial was already retired —
	// the double-spend case.
	ErrSpent = errors.New("cash: ECU already spent")
	// ErrInsufficient is returned when a wallet cannot cover an amount.
	ErrInsufficient = errors.New("cash: insufficient funds")
	// ErrBadECU is returned for malformed ECU encodings.
	ErrBadECU = errors.New("cash: malformed ECU")
	// ErrBadSplit is returned when requested denominations do not sum to
	// the value presented.
	ErrBadSplit = errors.New("cash: split amounts do not match value presented")
)

// serialBytes is the size of the random serial. 16 bytes keeps the chance
// of guessing a valid serial negligible.
const serialBytes = 16

// ECU is one electronic currency unit: an amount and an unforgeable,
// untraceable serial. The record carries no owner identity by design.
type ECU struct {
	// Amount is the value in the system's smallest unit.
	Amount int64
	// Serial is the large random number identifying this bill.
	Serial string
}

// String encodes the ECU in the folder-element format "amount|serial".
func (e ECU) String() string {
	return strconv.FormatInt(e.Amount, 10) + "|" + e.Serial
}

// ParseECU decodes an ECU from its string form.
func ParseECU(s string) (ECU, error) {
	amt, serial, ok := strings.Cut(s, "|")
	if !ok {
		return ECU{}, fmt.Errorf("%w: %q", ErrBadECU, s)
	}
	n, err := strconv.ParseInt(amt, 10, 64)
	if err != nil || n < 0 {
		return ECU{}, fmt.Errorf("%w: bad amount in %q", ErrBadECU, s)
	}
	if len(serial) != 2*serialBytes || !isHex(serial) {
		return ECU{}, fmt.Errorf("%w: bad serial in %q", ErrBadECU, s)
	}
	return ECU{Amount: n, Serial: serial}, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// ParseECUs decodes a list of ECU strings.
func ParseECUs(ss []string) ([]ECU, error) {
	out := make([]ECU, 0, len(ss))
	for _, s := range ss {
		e, err := ParseECU(s)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// FormatECUs encodes ECUs to their string forms.
func FormatECUs(ecus []ECU) []string {
	out := make([]string, len(ecus))
	for i, e := range ecus {
		out[i] = e.String()
	}
	return out
}

// Total sums the amounts of a set of ECUs.
func Total(ecus []ECU) int64 {
	var t int64
	for _, e := range ecus {
		t += e.Amount
	}
	return t
}

func newSerial() string {
	var b [serialBytes]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cash: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Wallet stores the ECU records an agent owns. Wallets are safe for
// concurrent use.
type Wallet struct {
	mu   sync.Mutex
	ecus map[string]ECU // serial -> ECU
}

// NewWallet returns an empty wallet.
func NewWallet() *Wallet {
	return &Wallet{ecus: make(map[string]ECU)}
}

// Add deposits ECUs into the wallet. Duplicated serials collapse — a
// wallet cannot hold two copies of the same bill.
func (w *Wallet) Add(ecus ...ECU) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range ecus {
		w.ecus[e.Serial] = e
	}
}

// Balance returns the total value held.
func (w *Wallet) Balance() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var t int64
	for _, e := range w.ecus {
		t += e.Amount
	}
	return t
}

// Count returns the number of bills held.
func (w *Wallet) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.ecus)
}

// pickGreedy selects bills covering amount from all: deterministic greedy,
// largest bills first, serial to break ties, overshoot included (bills are
// indivisible — the validator performs splits). It is the one denomination
// policy shared by wallets and briefcase CASH folders; on ErrInsufficient
// nothing is selected.
func pickGreedy(all []ECU, amount int64) ([]ECU, error) {
	if amount <= 0 {
		return nil, fmt.Errorf("cash: withdraw of non-positive amount %d", amount)
	}
	sorted := append([]ECU(nil), all...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Amount != sorted[j].Amount {
			return sorted[i].Amount > sorted[j].Amount
		}
		return sorted[i].Serial < sorted[j].Serial
	})
	var picked []ECU
	var got int64
	for _, e := range sorted {
		if got >= amount {
			break
		}
		picked = append(picked, e)
		got += e.Amount
	}
	if got < amount {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrInsufficient, got, amount)
	}
	return picked, nil
}

// Withdraw removes ECUs totalling at least amount and returns them. The
// overshoot, if any, is included — the caller exchanges the bills with the
// validation agent for exact denominations (a "split"). Withdraw is
// all-or-nothing: on ErrInsufficient the wallet is unchanged.
func (w *Wallet) Withdraw(amount int64) ([]ECU, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	all := make([]ECU, 0, len(w.ecus))
	for _, e := range w.ecus {
		all = append(all, e)
	}
	picked, err := pickGreedy(all, amount)
	if err != nil {
		return nil, err
	}
	for _, e := range picked {
		delete(w.ecus, e.Serial)
	}
	return picked, nil
}

// Snapshot returns a copy of all held ECUs.
func (w *Wallet) Snapshot() []ECU {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ECU, 0, len(w.ecus))
	for _, e := range w.ecus {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Serial < out[j].Serial })
	return out
}
