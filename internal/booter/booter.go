// Package booter models the DDoS-as-a-service ecosystem of §5.2: "booter"
// (stresser) storefronts that sell attacks by duration and intensity,
// advertised on underground forums. The humans who want a victim offline —
// a rival gamer, an extortionist — buy from the service; the service's
// botmaster drives spoofing-capable bots; the bots trigger harvested
// amplifiers. The paper's victimology (game ports, individuals, repeat
// attacks) is the visible output of exactly this market.
//
// The model is intentionally small: tiers with per-order caps, an order
// book, and a dispatcher that turns paid orders into attack.Campaigns. It
// reproduces the economics the paper cites (Karami & McCoy): cheap
// subscriptions, short default attacks, concurrency limits per customer.
package booter

import (
	"fmt"
	"sort"
	"time"

	"ntpddos/internal/attack"
	"ntpddos/internal/netaddr"
	"ntpddos/internal/rng"
)

// Tier is a subscription level.
type Tier struct {
	Name string
	// PriceUSD per month — bookkeeping only, but it makes revenue reports
	// possible (the "motivated by money" discussion of §5.2).
	PriceUSD float64
	// MaxSeconds is the longest single attack the tier allows.
	MaxSeconds int
	// Amplifiers is how many harvested amplifiers the service aims at one
	// victim for this tier.
	Amplifiers int
	// TriggerRate is the spoofed packets/second per amplifier.
	TriggerRate float64
	// Concurrent is the per-customer concurrent-attack cap.
	Concurrent int
}

// DefaultTiers mirror the 2014 storefront menus: a few dollars buys
// hundreds of seconds of "stress testing".
func DefaultTiers() []Tier {
	return []Tier{
		{Name: "bronze", PriceUSD: 5, MaxSeconds: 300, Amplifiers: 4, TriggerRate: 10, Concurrent: 1},
		{Name: "silver", PriceUSD: 15, MaxSeconds: 1200, Amplifiers: 12, TriggerRate: 40, Concurrent: 2},
		{Name: "gold", PriceUSD: 40, MaxSeconds: 7200, Amplifiers: 40, TriggerRate: 150, Concurrent: 4},
	}
}

// Order is one purchased attack.
type Order struct {
	Customer string
	Victim   netaddr.Addr
	Port     uint16
	Seconds  int
	Placed   time.Time
	Tier     string

	// Launched is set once the dispatcher has scheduled the campaign.
	Launched bool
	// Rejected explains a refused order ("" if accepted).
	Rejected string
}

// Service is a storefront bound to an attack engine.
type Service struct {
	Name   string
	Tiers  []Tier
	Engine *attack.Engine
	// Amplifiers is the service's harvested list (refreshed by its scanning
	// operation; stale entries silently fail, as in reality).
	Amplifiers []netaddr.Addr

	src        *rng.Source
	customers  map[string]*customer
	orders     []*Order
	RevenueUSD float64
}

type customer struct {
	tier    Tier
	expires time.Time
	active  int
}

// New creates a storefront.
func New(name string, engine *attack.Engine, src *rng.Source) *Service {
	return &Service{
		Name: name, Tiers: DefaultTiers(), Engine: engine,
		src: src, customers: make(map[string]*customer),
	}
}

// Subscribe signs a customer up to a tier for a month and books revenue.
func (s *Service) Subscribe(name, tierName string, now time.Time) error {
	for _, t := range s.Tiers {
		if t.Name == tierName {
			s.customers[name] = &customer{tier: t, expires: now.AddDate(0, 1, 0)}
			s.RevenueUSD += t.PriceUSD
			return nil
		}
	}
	return fmt.Errorf("booter: no tier %q", tierName)
}

// PlaceOrder books and (if the customer is in good standing) dispatches an
// attack. Orders exceeding the tier's duration are clamped, not refused —
// storefronts keep the money.
func (s *Service) PlaceOrder(customerName string, victim netaddr.Addr, port uint16, seconds int, now time.Time) *Order {
	o := &Order{Customer: customerName, Victim: victim, Port: port,
		Seconds: seconds, Placed: now}
	s.orders = append(s.orders, o)
	c, ok := s.customers[customerName]
	switch {
	case !ok:
		o.Rejected = "no subscription"
	case now.After(c.expires):
		o.Rejected = "subscription expired"
	case c.active >= c.tier.Concurrent:
		o.Rejected = "concurrency limit"
	case len(s.Amplifiers) == 0:
		o.Rejected = "no amplifiers harvested"
	}
	if o.Rejected != "" {
		return o
	}
	if o.Seconds > c.tier.MaxSeconds {
		o.Seconds = c.tier.MaxSeconds
	}
	o.Tier = c.tier.Name
	amps := c.tier.Amplifiers
	if amps > len(s.Amplifiers) {
		amps = len(s.Amplifiers)
	}
	chosen := make([]netaddr.Addr, amps)
	perm := s.src.Perm(len(s.Amplifiers))
	for i := 0; i < amps; i++ {
		chosen[i] = s.Amplifiers[perm[i]]
	}
	c.active++
	dur := time.Duration(o.Seconds) * time.Second
	s.Engine.Launch(attack.Campaign{
		Victim: victim, Port: port,
		Start: now.Add(5 * time.Second), Duration: dur,
		TriggerRate: c.tier.TriggerRate, Amplifiers: chosen,
	})
	// Release the concurrency slot when the attack ends.
	s.Engine.Network.Scheduler().At(now.Add(dur+10*time.Second), func(time.Time) {
		c.active--
	})
	o.Launched = true
	return o
}

// Stats summarise the storefront's books.
type Stats struct {
	Orders     int
	Launched   int
	Rejected   int
	RevenueUSD float64
	// TopVictims are the most-ordered targets — repeat gamer feuds show up
	// here, the paper's "rivals or for financial gain" pattern.
	TopVictims []VictimOrders
}

// VictimOrders counts orders against one victim.
type VictimOrders struct {
	Victim netaddr.Addr
	Orders int
}

// Report computes the storefront's stats.
func (s *Service) Report(topK int) Stats {
	st := Stats{Orders: len(s.orders), RevenueUSD: s.RevenueUSD}
	per := map[netaddr.Addr]int{}
	for _, o := range s.orders {
		if o.Launched {
			st.Launched++
		}
		if o.Rejected != "" {
			st.Rejected++
		}
		per[o.Victim]++
	}
	for v, n := range per {
		st.TopVictims = append(st.TopVictims, VictimOrders{Victim: v, Orders: n})
	}
	sort.Slice(st.TopVictims, func(i, j int) bool {
		if st.TopVictims[i].Orders != st.TopVictims[j].Orders {
			return st.TopVictims[i].Orders > st.TopVictims[j].Orders
		}
		return st.TopVictims[i].Victim < st.TopVictims[j].Victim
	})
	if topK < len(st.TopVictims) {
		st.TopVictims = st.TopVictims[:topK]
	}
	return st
}
