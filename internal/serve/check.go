package serve

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"daasscale/internal/fsio"
	"daasscale/internal/ledger"
)

// LedgerCheck is one tenant's verified ledger summary.
type LedgerCheck struct {
	// Tenant is the tenant ID the ledger belongs to.
	Tenant string `json:"tenant"`
	// Decisions is the count of replayed decisions — all verified
	// contiguous from interval 0.
	Decisions int `json:"decisions"`
	// Items is the count of billing line-items, each verified
	// byte-identical to its decision's derivation.
	Items int `json:"items"`
	// Segments is how many segment files the ledger spans.
	Segments int `json:"segments"`
	// TrailingUnbilled reports a final decision whose line item had not
	// landed yet — legal transiently (the next open heals it), never
	// mid-stream.
	TrailingUnbilled bool `json:"trailing_unbilled,omitempty"`
	// TotalCost is the replayed bill.
	TotalCost float64 `json:"total_cost"`
}

// VerifyLedgers replays every tenant ledger under dir and asserts the
// crash-consistency invariants the serving contract promises:
//
//  1. Decision intervals are contiguous from 0 — no decided interval is
//     ever missing or duplicated, across any number of crashes,
//     rotations, and recoveries.
//  2. The bill advances in lockstep: the i-th line item is byte-identical
//     to LineItemFor(i-th decision). At most the final decision may be
//     transiently unbilled (a torn tail the next recovery heals); a
//     mid-stream mismatch is a wrong bill and fails.
//  3. No acknowledged ingest is lost: for each tenant in acked, the
//     replayed decision count covers every interval below the
//     acknowledged NextSeq.
//
// acked maps tenant ID to the highest NextSeq a 200/429 reply carried
// (nil = skip invariant 3). The caller must have run the server in a
// strict sync mode (SyncEvery 1 or < 0) for invariant 3 to be exact;
// group-commit mode intentionally trades the unsynced tail for
// throughput.
func VerifyLedgers(fsys fsio.FS, dir string, acked map[string]int) ([]LedgerCheck, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: verify: %w", err)
	}
	// A tenant is present if its active segment or any sealed segment is —
	// a crash can land between a rotation's rename and the fresh create.
	tenants := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if i := strings.Index(name, ".ledger.seal-"); i > 0 {
			tenants[name[:i]] = true
			continue
		}
		if strings.HasSuffix(name, ".ledger") {
			tenants[strings.TrimSuffix(name, ".ledger")] = true
		}
	}
	ids := make([]string, 0, len(tenants))
	for id := range tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	checks := make([]LedgerCheck, 0, len(ids))
	for _, id := range ids {
		log, err := ledger.ReplayFS(fsys, filepath.Join(dir, id+".ledger"))
		if err != nil {
			return checks, fmt.Errorf("serve: verify %s: %w", id, err)
		}
		c, err := checkLog(id, log)
		if err != nil {
			return checks, err
		}
		if a, ok := acked[id]; ok && c.Decisions < a {
			return checks, fmt.Errorf("serve: verify %s: acknowledged NextSeq %d but only %d decisions survived — an acked decision was lost", id, a, c.Decisions)
		}
		checks = append(checks, c)
	}
	return checks, nil
}

// checkLog verifies one replayed ledger's internal invariants.
func checkLog(id string, log *ledger.Log) (LedgerCheck, error) {
	c := LedgerCheck{Tenant: id, Segments: log.Segments, TotalCost: log.TotalCost()}
	decs := log.Decisions()
	items := log.Items()
	c.Decisions = len(decs)
	c.Items = len(items)
	for i, d := range decs {
		if d.Interval != i {
			return c, fmt.Errorf("serve: verify %s: decision %d covers interval %d — the decided stream has a hole or a duplicate", id, i, d.Interval)
		}
	}
	switch {
	case len(items) == len(decs):
	case len(items) == len(decs)-1:
		c.TrailingUnbilled = true
	default:
		return c, fmt.Errorf("serve: verify %s: %d decisions but %d line items — the bill and the decision trail disagree", id, len(decs), len(items))
	}
	for i, it := range items {
		want := ledger.LineItemFor(decs[i])
		if !bytes.Equal(ledger.EncodeLineItem(nil, &it), ledger.EncodeLineItem(nil, &want)) {
			return c, fmt.Errorf("serve: verify %s: line item %d (%+v) does not derive from its decision (%+v) — wrong bill", id, i, it, want)
		}
	}
	return c, nil
}
