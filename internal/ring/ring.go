// Package ring models the point-to-point, bi-directional intrachip
// connection network of Figure 1: an address ring that serializes and
// broadcasts coherence transactions to all bus agents, and two
// unidirectional data rings that carry cache lines.
//
// The ring runs at half the core clock with a 32-byte data path
// (Table 3), so a 128-byte line occupies a data ring for 4 beats x 2
// core cycles = 8 core cycles, and the address ring accepts one new
// transaction every 2 core cycles. Contention appears as FIFO queueing
// delay on these resources; propagation latency is part of the
// config.Config timing decomposition, not of this package.
package ring

import (
	"cmpcache/internal/config"
	"cmpcache/internal/sim"
)

// Ring is the intrachip interconnect. It is a timing resource only;
// routing and snooping semantics live in the system orchestrator.
type Ring struct {
	addr    sim.Server
	data    [2]sim.Server
	addrOcc config.Cycles
	dataOcc config.Cycles
}

// New builds a ring from the configuration's occupancy parameters.
func New(cfg *config.Config) *Ring {
	if cfg.AddrRingOccupancy <= 0 || cfg.DataRingOccupancy <= 0 {
		panic("ring: occupancies must be positive")
	}
	return &Ring{addrOcc: cfg.AddrRingOccupancy, dataOcc: cfg.DataRingOccupancy}
}

// ReserveAddress books an address-ring slot at or after now and returns
// the cycle the transaction begins its broadcast. Transactions are
// serialized here: this is the chip's coherence point of order.
func (r *Ring) ReserveAddress(now config.Cycles) config.Cycles {
	return r.addr.Reserve(now, r.addrOcc)
}

// ReserveData books a line transfer on whichever direction of the data
// ring frees up first, returning the transfer's start cycle. The
// returned completion is start + DataOccupancy.
func (r *Ring) ReserveData(now config.Cycles) config.Cycles {
	if r.data[0].NextFree() <= r.data[1].NextFree() {
		return r.data[0].Reserve(now, r.dataOcc)
	}
	return r.data[1].Reserve(now, r.dataOcc)
}

// DataOccupancy returns the per-line data transfer time.
func (r *Ring) DataOccupancy() config.Cycles { return r.dataOcc }

// AddressTransactions returns the number of address-ring slots granted.
func (r *Ring) AddressTransactions() uint64 { return r.addr.Reservations() }

// DataTransfers returns the number of line transfers granted.
func (r *Ring) DataTransfers() uint64 {
	return r.data[0].Reservations() + r.data[1].Reservations()
}

// AddressWaited returns cumulative address-ring queueing delay.
func (r *Ring) AddressWaited() config.Cycles { return r.addr.WaitedCycles() }

// DataWaited returns cumulative data-ring queueing delay.
func (r *Ring) DataWaited() config.Cycles {
	return r.data[0].WaitedCycles() + r.data[1].WaitedCycles()
}

// AddressBusyCycles returns cumulative booked address-ring service time
// (the numerator of AddressUtilization; samplers difference it to get
// per-window utilization).
func (r *Ring) AddressBusyCycles() config.Cycles { return r.addr.BusyCycles() }

// DataBusyCycles returns cumulative booked service time summed over
// both data-ring directions (full utilization of both rings over an
// interval w therefore reads as 2*w busy cycles).
func (r *Ring) DataBusyCycles() config.Cycles {
	return r.data[0].BusyCycles() + r.data[1].BusyCycles()
}

// AddressUtilization returns the address ring's busy fraction over
// elapsed cycles.
func (r *Ring) AddressUtilization(elapsed config.Cycles) float64 {
	return r.addr.Utilization(elapsed)
}

// DataUtilization returns the mean busy fraction of the two data rings.
func (r *Ring) DataUtilization(elapsed config.Cycles) float64 {
	return (r.data[0].Utilization(elapsed) + r.data[1].Utilization(elapsed)) / 2
}
