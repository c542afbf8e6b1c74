package ntpd

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"ntpddos/internal/core"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/vtime"
)

// The monlist cache is rebuilt in place (see monlistFragments). The tests
// here drive random programs of MRU operations through the Server's public
// API and through mruModel, a plain most-recent-first slice, and check every
// reply against ntp.BuildMonlistResponse over the model.

// modelEntry is one row of the reference MRU.
type modelEntry struct {
	addr            netaddr.Addr
	port            uint16
	mode, version   uint8
	count           int64
	firstNs, lastNs int64
}

// mruModel is the reference monitor table and response cache: the same
// semantics as Server, with none of its slab, index or in-place encoding.
type mruModel struct {
	entries []modelEntry // most recent first
	gen     int64        // mutations, counted as Server.mruGen counts them

	cached  bool
	lastReq uint8
	lastGen int64
	lastAt  time.Time
	last    [][]byte // deep copy of the last rebuild's reply
}

func (m *mruModel) record(addr netaddr.Addr, port uint16, mode, version uint8, rep int64, now time.Time) {
	m.gen++
	ns := now.UnixNano()
	for i, e := range m.entries {
		if e.addr == addr {
			e.count += rep
			e.lastNs = ns
			e.port, e.mode, e.version = port, mode, version
			copy(m.entries[1:i+1], m.entries[:i])
			m.entries[0] = e
			return
		}
	}
	m.entries = append([]modelEntry{{addr: addr, port: port, mode: mode, version: version,
		count: rep, firstNs: ns, lastNs: ns}}, m.entries...)
	if len(m.entries) > ntp.MaxMonlistEntries {
		m.entries = m.entries[:ntp.MaxMonlistEntries]
	}
}

// expire drops entries last seen before cutoff and reports whether one of
// them had a surviving entry behind it, i.e. whether survivors moved toward
// the head.
func (m *mruModel) expire(cutoff time.Time) (middle bool) {
	ns := cutoff.UnixNano()
	kept := m.entries[:0]
	dropped := false
	for _, e := range m.entries {
		if e.lastNs < ns {
			m.gen++
			dropped = true
			continue
		}
		middle = middle || dropped
		kept = append(kept, e)
	}
	m.entries = kept
	return middle
}

// monEntries renders the table as ntpd does at query time.
func (m *mruModel) monEntries(daddr netaddr.Addr, now time.Time) []ntp.MonEntry {
	out := make([]ntp.MonEntry, len(m.entries))
	for i, e := range m.entries {
		var avg uint32
		if e.count > 1 {
			avg = uint32((e.lastNs - e.firstNs) / int64(time.Second) / (e.count - 1))
		}
		out[i] = ntp.MonEntry{
			Addr: e.addr, DAddr: daddr,
			Count:   uint32(core.Min64(e.count, 1<<32-1)),
			Mode:    e.mode,
			Version: e.version,
			Port:    e.port, AvgInterval: avg,
			LastSeen: uint32((now.UnixNano() - e.lastNs) / int64(time.Second)),
		}
	}
	return out
}

// programCoverage counts the cases a run of programs reached.
type programCoverage struct {
	rebuilds, cachedProbes, noData, fullTable, evictions, legacy, codeChanges,
	middleExpiries, headward, grown, shrunk, countOne int
}

// runMonlistProgram interprets prog as MRU operations applied to a Server
// and to the model alike. Each op is one byte, its low three bits the kind,
// followed by operand bytes (zero once prog runs out):
//
//	0, 1  record k fresh clients
//	2, 3  re-record an existing entry
//	4     ExpireOlderThan
//	5-7   probe, via Respond or straight from monlistFragments
//
// Records carry Rep 1 or more and timestamps at or before now, as the
// scenario's weekly refresh does. Probes ask for either request code and
// advance time past the ten-minute cache window or within it; a probe that
// the cache policy answers from the last rebuild must get that reply again,
// and every other must equal ntp.BuildMonlistResponse over the model.
func runMonlistProgram(t *testing.T, prog []byte, cov *programCoverage) {
	t.Helper()
	daddr := netaddr.MustParseAddr("10.0.0.2")
	srv := New(Config{Addr: daddr, MonlistEnabled: true, Profile: Profile{TTL: 64}})
	var model mruModel
	now := vtime.Epoch.Add(24 * time.Hour)
	fresh := uint32(0)
	pc := 0
	next := func() int {
		if pc >= len(prog) {
			return 0
		}
		pc++
		return int(prog[pc-1])
	}
	record := func(addr netaddr.Addr, port uint16, mode, version uint8, rep int64, at time.Time) {
		srv.Record(addr, port, mode, version, rep, at)
		model.record(addr, port, mode, version, rep, at)
	}
	lastFrags := 0
	for op := 0; pc < len(prog); op++ {
		kind := next()
		switch kind & 7 {
		case 0, 1:
			k, b := 1+next()%64, next()
			for j := 0; j < k; j++ {
				fresh++
				rep := int64(1)
				if b&1 != 0 {
					rep = 1 + int64(fresh*7+uint32(b))%30
				}
				age := time.Duration(0)
				if b&2 != 0 {
					age = time.Duration((fresh*131+uint32(b))%7200) * time.Second
				}
				mode := uint8(ntp.ModeClient)
				if fresh%7 == 3 {
					mode = ntp.ModeServer
				}
				if len(model.entries) == ntp.MaxMonlistEntries {
					cov.evictions++
				}
				record(netaddr.Addr(0x0b000000+fresh), uint16(1024+fresh), mode, 4, rep, now.Add(-age))
			}
		case 2, 3:
			idx, b, c := next(), next(), next()
			if len(model.entries) == 0 {
				continue
			}
			e := model.entries[idx%len(model.entries)]
			rep := int64(1 + b%4)
			if b%16 == 15 {
				rep = 3 << 30 // pushes Count past what 32 bits hold
			}
			age := time.Duration(c%4) * time.Duration(c) * 31 * time.Second
			record(e.addr, uint16(b<<8|c), uint8(c%8), uint8(2+b%3), rep, now.Add(-age))
		case 4:
			cutoff := now.Add(-time.Duration(next()) * 4 * time.Minute)
			srv.ExpireOlderThan(cutoff)
			if model.expire(cutoff) {
				cov.middleExpiries++
			}
		default:
			b, c := next(), next()
			reqCode := uint8(ntp.ReqMonGetList1)
			if b&1 != 0 {
				reqCode = ntp.ReqMonGetList
			}
			if b&2 != 0 {
				now = now.Add(10*time.Minute + time.Duration(c)*7*time.Second)
			} else {
				now = now.Add(time.Duration(c) * 2 * time.Second)
			}
			var got [][]byte
			headward := false
			if b&4 != 0 {
				// A probe through Respond records its source first: an
				// existing entry moved to the front, or a new scanner.
				src, port := netaddr.Addr(0x0c000000+uint32(c)), uint16(40000+c)
				if b&8 != 0 && len(model.entries) > 0 {
					src = model.entries[c%len(model.entries)].addr
				}
				impl := uint8(ntp.ImplXNTPD)
				if b&16 != 0 {
					impl = ntp.ImplUniv
				}
				model.record(src, port, ntp.ModePrivate, 2, 1, now)
				got = srv.Respond(ntp.NewMonlistRequest(impl, reqCode), src, port, now)
			} else {
				headward = movesTowardHead(srv)
				got = srv.monlistFragments(reqCode, now)
			}
			if model.cached && model.lastReq == reqCode &&
				model.gen-model.lastGen <= 500 && now.Sub(model.lastAt) < 10*time.Minute {
				cov.cachedProbes++
				checkReply(t, op, "cached reply", got, model.last)
				continue
			}
			want := ntp.BuildMonlistResponse(model.monEntries(daddr, now), ntp.ImplXNTPD, reqCode)
			checkReply(t, op, "rebuild", got, want)
			cov.rebuilds++
			switch n := len(model.entries); {
			case n == 0:
				cov.noData++
			case n == ntp.MaxMonlistEntries:
				cov.fullTable++
			}
			if reqCode == ntp.ReqMonGetList {
				cov.legacy++
			}
			if model.cached && model.lastReq != reqCode {
				cov.codeChanges++
			}
			if headward && model.cached && model.lastReq == reqCode {
				cov.headward++
			}
			if model.cached && model.lastReq == reqCode && len(want) > lastFrags {
				cov.grown++
			}
			if model.cached && model.lastReq == reqCode && len(want) < lastFrags {
				cov.shrunk++
			}
			for _, e := range model.entries {
				if e.count == 1 {
					cov.countOne++
					break
				}
			}
			lastFrags = len(want)
			model.cached, model.lastReq, model.lastGen, model.lastAt = true, reqCode, model.gen, now
			model.last = model.last[:0]
			for _, f := range want {
				model.last = append(model.last, bytes.Clone(f))
			}
		}
	}
}

// movesTowardHead reports whether an item of the last encode now sits
// further toward the head, so a rebuild would have to encode it afresh.
func movesTowardHead(srv *Server) bool {
	p := int32(0)
	for i := srv.mruHead; i != mruNil; i = srv.mruStore[i].next {
		if int(i) < len(srv.encPos) && srv.encPos[i] > p {
			return true
		}
		p++
	}
	return false
}

// checkReply fails the test at the first fragment where got and want differ,
// naming the first differing item.
func checkReply(t *testing.T, op int, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d %s: %d fragments, want %d", op, what, len(got), len(want))
	}
	for i := range want {
		if bytes.Equal(got[i], want[i]) {
			continue
		}
		_, ge, gerr := ntp.ParseMonlistResponse(got[i])
		_, we, _ := ntp.ParseMonlistResponse(want[i])
		for j := range we {
			if gerr != nil || j >= len(ge) || ge[j] != we[j] {
				if gerr == nil && j < len(ge) {
					t.Fatalf("op %d %s: fragment %d item %d\n got %+v\nwant %+v", op, what, i, j, ge[j], we[j])
				}
				break
			}
		}
		t.Fatalf("op %d %s: fragment %d\n got %x\nwant %x", op, what, i, got[i], want[i])
	}
}

// TestMonlistIncrementalMatchesRebuild is the differential test of the
// in-place rebuild: seeded random programs, every reply checked against a
// from-scratch encoding of the reference model, and every case the rebuild
// distinguishes reached.
func TestMonlistIncrementalMatchesRebuild(t *testing.T) {
	var cov programCoverage
	for seed := uint64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x6d6f6e6c))
		prog := make([]byte, 600)
		for i := range prog {
			prog[i] = byte(r.Uint32())
		}
		runMonlistProgram(t, prog, &cov)
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"rebuilds": cov.rebuilds, "cached probes": cov.cachedProbes,
		"empty tables": cov.noData, "full tables": cov.fullTable, "evictions": cov.evictions,
		"legacy rebuilds": cov.legacy, "request-code changes": cov.codeChanges,
		"middle expiries": cov.middleExpiries, "items moving toward the head": cov.headward,
		"grown": cov.grown, "shrunk": cov.shrunk,
		"count-1 entries": cov.countOne,
	} {
		if n == 0 {
			t.Errorf("no program reached %s", name)
		}
	}
}

// FuzzMonlistIncremental runs the differential program on fuzzed bytes.
func FuzzMonlistIncremental(f *testing.F) {
	f.Add([]byte{})
	// Grow past the 600 cap, probe both codes, expire, probe again.
	grow := bytes.Repeat([]byte{0, 63, 3}, 12)
	f.Add(append(grow, 5, 2, 0, 5, 3, 0, 4, 40, 5, 6, 9, 5, 7, 200))
	// Re-record entries between rebuilds past the cache window.
	f.Add([]byte{0, 40, 2, 5, 2, 0, 2, 7, 1, 200, 5, 2, 1, 3, 19, 15, 44, 5, 14, 3, 4, 0, 5, 2, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			return
		}
		runMonlistProgram(t, prog, &programCoverage{})
	})
}

// TestMonlistRebuildZeroAlloc is the allocation wall of the warm rebuild: a
// full table re-encoded after a new client is pushed to the front reuses
// every buffer.
func TestMonlistRebuildZeroAlloc(t *testing.T) {
	srv := New(Config{Addr: 1, MonlistEnabled: true, Profile: Profile{TTL: 64}})
	now := vtime.Epoch
	for i := 0; i < ntp.MaxMonlistEntries; i++ {
		srv.Record(netaddr.Addr(uint32(i)), 123, ntp.ModeClient, 4, 1, now)
	}
	srv.monlistFragments(ntp.ReqMonGetList1, now)
	client := uint32(ntp.MaxMonlistEntries)
	var frags [][]byte
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(11 * time.Minute)
		srv.Record(netaddr.Addr(client), 123, ntp.ModeClient, 4, 1, now)
		client++
		frags = srv.monlistFragments(ntp.ReqMonGetList1, now)
	}); n != 0 {
		t.Errorf("warm monlist rebuild: %.1f allocs/op, want 0", n)
	}
	if es := decodeTable(t, frags); len(es) != ntp.MaxMonlistEntries || es[0].Addr != netaddr.Addr(client-1) {
		t.Fatalf("rebuilt table: %d entries, head %v", len(es), es[0].Addr)
	}
}
