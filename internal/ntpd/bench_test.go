package ntpd

import (
	"testing"
	"time"

	"ntpddos/internal/netaddr"
	"ntpddos/internal/ntp"
	"ntpddos/internal/rng"
	"ntpddos/internal/vtime"
)

func benchSource() *rng.Source { return rng.New(1) }

func BenchmarkRecord(b *testing.B) {
	srv := New(Config{Addr: 1, MonlistEnabled: true, Profile: Profile{TTL: 64}})
	now := vtime.Epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv.Record(netaddr.Addr(uint32(i)%2048), 123, ntp.ModeClient, 4, 1, now)
		now = now.Add(time.Millisecond)
	}
}

func BenchmarkRespondMonlistFullTable(b *testing.B) {
	srv := New(Config{Addr: 1, MonlistEnabled: true, Profile: Profile{TTL: 64}})
	for i := 0; i < ntp.MaxMonlistEntries; i++ {
		srv.Record(netaddr.Addr(uint32(i)), 123, ntp.ModeClient, 4, 1, vtime.Epoch)
	}
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	now := vtime.Epoch.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Advance past the cache TTL every iteration so every probe
		// rebuilds. The probe's source goes to the front of the table, so
		// this measures the shifted path: one item encoded, the other 599
		// copied one slot toward the tail with LastSeen rewritten.
		now = now.Add(11 * time.Minute)
		if got := srv.Respond(probe, netaddr.Addr(uint32(i)), 4000, now); len(got) == 0 {
			b.Fatal("no response")
		}
	}
}

// BenchmarkRespondMonlistAllRecorded records every entry between rebuilds,
// so no item survives from the previous encode: each rebuild is the
// full-encode fallback, measured with the 600 Records that force it.
func BenchmarkRespondMonlistAllRecorded(b *testing.B) {
	srv := New(Config{Addr: 1, MonlistEnabled: true, Profile: Profile{TTL: 64}})
	for i := 0; i < ntp.MaxMonlistEntries; i++ {
		srv.Record(netaddr.Addr(uint32(i)), 123, ntp.ModeClient, 4, 1, vtime.Epoch)
	}
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	now := vtime.Epoch.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(11 * time.Minute)
		for a := 0; a < ntp.MaxMonlistEntries; a++ {
			srv.Record(netaddr.Addr(uint32(a)), 123, ntp.ModeClient, 4, 1, now)
		}
		if got := srv.Respond(probe, netaddr.Addr(uint32(i%ntp.MaxMonlistEntries)), 4000, now); len(got) != 100 {
			b.Fatal("no full response")
		}
	}
}

func BenchmarkRespondMonlistCached(b *testing.B) {
	srv := New(Config{Addr: 1, MonlistEnabled: true, Profile: Profile{TTL: 64}})
	for i := 0; i < ntp.MaxMonlistEntries; i++ {
		srv.Record(netaddr.Addr(uint32(i)), 123, ntp.ModeClient, 4, 1, vtime.Epoch)
	}
	probe := ntp.NewMonlistRequest(ntp.ImplXNTPD, ntp.ReqMonGetList1)
	now := vtime.Epoch.Add(time.Hour)
	srv.Respond(probe, 9, 4000, now) // warm the cache
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv.Respond(probe, 9, 4000, now)
	}
}

func BenchmarkSampleProfile(b *testing.B) {
	src := benchSource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SampleProfile(src, RoleAmplifier)
	}
}
