// The paper's evaluation comes down to the numbers in Claims. A row says
// where the paper states its number, how that number bounds the simulation,
// and which field of the one measured pass it reads. The figure
// annotations, the headline and TestPaperClaims all render from the table,
// so a paper number is written here and nowhere else.
package bench

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/cmam"
	"repro/internal/xport"
)

// Bound is how a claim's paper value bounds the simulated one.
type Bound int

const (
	Near    Bound = iota // within 10 % of Value
	AtMost               // at most Value
	AtLeast              // at least Value
	Between              // from Low to Value
)

// Claim is one row of the table.
type Claim struct {
	System, Label string // whose number, and what is measured; a figure prints its system's rows
	Source        string // where the paper states it, and the size sweep it is read on
	Bound         Bound
	Value, Low    float64 // the paper's number; Low is a Between's bottom
	Unit          string  // appended to a number: " MB/s", " us", " B", "%" or " cycles"
	Read          func(m *Measured) float64
	// Deviation is empty unless the row is out of bound on purpose; then it
	// names the model term the difference comes from, or says "unverified".
	// TestPaperClaims fails a deviation row that is back in bound, so the
	// note cannot outlive its cause.
	Deviation string
}

// Claims is the table, in figure order.
var Claims = []Claim{
	{System: "CM-5 AM", Label: "finite total", Source: "§2.3, Figure 2, 16-word messages in 4-word packets",
		Bound: Near, Value: 397, Unit: " cycles", Read: func(m *Measured) float64 { return float64(m.Fin.TotalCycles(cmam.Total)) }},
	{System: "CM-5 AM", Label: "finite guarantees", Source: "§2.3, Figure 2, share of total cycles",
		Bound: Between, Low: 50, Value: 70, Unit: "%", Read: func(m *Measured) float64 { return 100 * m.Fin.GuaranteeShare(cmam.Total) }},
	{System: "CM-5 AM", Label: "indefinite guarantees", Source: "§2.3, Figure 2, share of total cycles",
		Bound: Between, Low: 50, Value: 70, Unit: "%", Read: func(m *Measured) float64 { return 100 * m.Ind.GuaranteeShare(cmam.Total) }},

	{System: "FM 1.x", Label: "peak", Source: "§3, Figure 3b, 16-512 B",
		Bound: Near, Value: 17.6, Unit: " MB/s", Read: func(m *Measured) float64 { return m.Fig3b().Peak() }},
	{System: "FM 1.x", Label: "N1/2", Source: "§3, Figure 3b, 16-512 B",
		Bound: Near, Value: 54, Unit: " B", Read: func(m *Measured) float64 { return float64(m.Fig3b().NHalf()) }},
	{System: "FM 1.x", Label: "latency", Source: "§3, one-way, 16 B ping-pong",
		Bound: Near, Value: 14, Unit: " us", Read: func(m *Measured) float64 { return m.FM1Lat }},

	{System: "MPI-FM 1.x", Label: "peak", Source: "§3.2, Figure 4a, 16-2048 B",
		Bound: Between, Low: 3.5, Value: 6, Unit: " MB/s", Read: func(m *Measured) float64 { return m.MPI1.Peak() },
		Deviation: "the sender bounds it at 2048 B: Profile.MPI.Send on the Sparc profile (8 us), the FM 1.x adapter's two " +
			"whole-message copies at its Profile.MemcpyLargeMBps (21 MB/s; assembly and encapsulation walk, " +
			"xport/fm1xport.go) and FM 1.x's own send take ~324 us a message; 6 MB/s needs ~341 (Send at 25 us reads 6.00)"},
	{System: "MPI-FM 1.x", Label: "max eff", Source: "§3.2, Figure 4b, 16-2048 B",
		Bound: AtMost, Value: 35, Unit: "%", Read: func(m *Measured) float64 { return m.MPI1Eff().Peak() },
		Deviation: "the maximum sits at 256 B, below the Sparc Profile.MemcpyCacheThreshold (512): MPI-FM's " +
			"280 B copies run at the in-cache 38 MB/s, its 536 B copies at 21 MB/s (a threshold of 256 reads 35.49 %)"},
	{System: "MPI-FM 1.x", Label: "eff@2048B", Source: "§3.2, Figure 4b, at 2048 B, where MPI-FM peaks",
		Bound: Near, Value: 20, Unit: "%", Read: func(m *Measured) float64 { return m.MPI1Eff().At(2048) },
		Deviation: "the peak row's terms: the sender's 8 us and two copies make an MPI-FM 1.x message cost 2.8x " +
			"an FM 1.x one at 2048 B, where ~20 % needs ~5x (Send at 25 us reads 33.7 %); what else the paper's MPICH " +
			"device paid is unverified"},

	{System: "FM 2.x", Label: "peak", Source: "§4.2, Figure 5, 16-2048 B",
		Bound: Near, Value: 77, Unit: " MB/s", Read: func(m *Measured) float64 { return m.FM2.Peak() }},
	{System: "FM 2.x", Label: "N1/2", Source: "§4.2, Figure 5, 16-2048 B",
		Bound: AtMost, Value: 256, Unit: " B", Read: func(m *Measured) float64 { return float64(m.FM2.NHalf()) }},
	{System: "FM 2.x", Label: "latency", Source: "§4.2, one-way, 16 B ping-pong",
		Bound: Near, Value: 11, Unit: " us", Read: func(m *Measured) float64 { return m.FM2Lat }},

	{System: "MPI-FM 2.x", Label: "peak", Source: "§5, Figure 6a, 16-2048 B",
		Bound: Near, Value: 70, Unit: " MB/s", Read: func(m *Measured) float64 { return m.MPI2.Peak() }},
	{System: "MPI-FM 2.x", Label: "eff@16B", Source: "§1 and §5, Figure 6b, 16 B",
		Bound: AtLeast, Value: 70, Unit: "%", Read: func(m *Measured) float64 { return m.MPI2Eff().At(16) }},
	{System: "MPI-FM 2.x", Label: "max eff", Source: "§1 and §5, Figure 6b, 16-2048 B",
		Bound: Near, Value: 90, Unit: "%", Read: func(m *Measured) float64 { return m.MPI2Eff().Peak() }},
	{System: "MPI-FM 2.x", Label: "latency", Source: "§5, one-way, 16 B ping-pong",
		Bound: Near, Value: 17, Unit: " us", Read: func(m *Measured) float64 { return m.MPI2Lat },
		Deviation: "Profile.MPI.Send and .Recv on the PPro200 profile (1 us, 1.2 us) and the 24 B header add 3.1 us to FM 2.x's " +
			"one-way time, where the paper's MPI-FM 2.x adds 6 us to its 11; 3 us more of them reads 16.1 us but " +
			"eff@16B 56 %, so raising this per-message term alone cannot meet both rows"},
}

// Holds reports whether a simulated value is within the claim's bound.
func (c Claim) Holds(v float64) bool {
	switch c.Bound {
	case Near:
		return math.Abs(v/c.Value-1) <= 0.10
	case AtMost:
		return v <= c.Value
	case AtLeast:
		return v >= c.Value
	}
	return c.Low <= v && v <= c.Value
}

// Paper renders the paper's value with its bound.
func (c Claim) Paper() string {
	v := num(c.Value) + c.Unit
	switch c.Bound {
	case AtMost:
		return "<=" + v
	case AtLeast:
		return ">=" + v
	case Between:
		return num(c.Low) + "-" + v
	}
	return v
}

// Sim renders a simulated value in the claim's unit.
func (c Claim) Sim(v float64) string { return num(v) + c.Unit }

func num(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// Measured is the one pass over the paper's measured evaluation: the four
// bandwidth curves on StdSizes, the four one-way 16 B latencies (us), and
// Figure 2's CM-5 breakdowns.
type Measured struct {
	FM1, FM2, MPI1, MPI2             Curve
	FM1Lat, FM2Lat, MPI1Lat, MPI2Lat float64
	Fin, Ind                         cmam.Breakdown
}

// Measure returns the pass. It runs on first use, and every later caller in
// the process shares its result, which is read-only.
func Measure() *Measured { return measured() }

var measured = sync.OnceValue(func() *Measured {
	return &Measured{
		FM1:     FMCurve(xport.GenFM1.Machine(), StdSizes),
		FM2:     FMCurve(xport.GenFM2.Machine(), StdSizes),
		MPI1:    MPICurve(xport.GenFM1.Machine(), StdSizes),
		MPI2:    MPICurve(xport.GenFM2.Machine(), StdSizes),
		FM1Lat:  FMLatency(xport.GenFM1.Machine(), 16, 50).Micros(),
		FM2Lat:  FMLatency(xport.GenFM2.Machine(), 16, 50).Micros(),
		MPI1Lat: MPILatency(xport.GenFM1.Machine(), 16, 50).Micros(),
		MPI2Lat: MPILatency(xport.GenFM2.Machine(), 16, 50).Micros(),
		Fin:     cmam.Model(cmam.PaperCase()),
		Ind:     cmam.Model(cmam.Config{MsgWords: 16, PacketWords: 4, Seq: cmam.Indefinite}),
	}
})

// Fig3b is FM 1.x on Figure 3b's sweep, ShortSizes (a prefix of StdSizes).
func (m *Measured) Fig3b() Curve { return m.FM1[:len(ShortSizes)] }

// MPI1Eff and MPI2Eff are Figures 4b and 6b: MPI-FM as a share of its FM.
func (m *Measured) MPI1Eff() Curve { return Efficiency(m.MPI1, m.FM1) }
func (m *Measured) MPI2Eff() Curve { return Efficiency(m.MPI2, m.FM2) }

// writeClaims prints a figure's annotation line: each of its system's rows
// as label, simulated value and paper value.
func writeClaims(w io.Writer, m *Measured, system string) {
	fmt.Fprintf(w, "  %s:", system)
	sep := " "
	for _, c := range Claims {
		if c.System != system {
			continue
		}
		note := ""
		if c.Deviation != "" {
			note = ", deviation"
		}
		fmt.Fprintf(w, "%s%s %s (paper %s%s)", sep, c.Label, c.Sim(c.Read(m)), c.Paper(), note)
		sep = "   "
	}
	fmt.Fprintln(w)
}

// WriteHeadline renders the headline: the paper's claims for FM and MPI-FM
// of both generations, then each one's simulated peak, N1/2 and latency.
func WriteHeadline(w io.Writer) {
	m := Measure()
	rows := []struct {
		system, name string
		c            Curve
		lat          float64
	}{
		{"FM 1.x", "FM 1.x (sparc)", m.Fig3b(), m.FM1Lat},
		{"MPI-FM 1.x", "MPI over FM 1.x", m.MPI1, m.MPI1Lat},
		{"FM 2.x", "FM 2.x (ppro200)", m.FM2, m.FM2Lat},
		{"MPI-FM 2.x", "MPI-FM 2.0", m.MPI2, m.MPI2Lat},
	}
	fmt.Fprintln(w, "Headline reproduction summary (paper targets in parentheses):")
	fmt.Fprint(w, "  paper:")
	for i, r := range rows {
		if i > 0 {
			fmt.Fprint(w, " |")
		}
		fmt.Fprint(w, " ", r.system)
		sep := " "
		for _, c := range Claims {
			if c.System == r.system {
				fmt.Fprintf(w, "%s%s %s", sep, c.Label, c.Paper())
				sep = ", "
			}
		}
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s peak %7.2f MB/s   N1/2 %5d B   latency %6.2f us\n", r.name, r.c.Peak(), r.c.NHalf(), r.lat)
	}
	fmt.Fprintln(w)
}
