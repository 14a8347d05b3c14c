package cmam

import "testing"

func TestPaperCaseReproducesQuotedCycles(t *testing.T) {
	// Paper §2.3: "in one case (16-word messages, 4-word packet size,
	// multi-packet delivery) 216 out of a total 397 cycles are spent for
	// buffer management (148 cycles), in-order delivery (21 cycles) and
	// fault tolerance (47 cycles)".
	b := Model(PaperCase())
	if got := b.TotalCycles(Total); got != 397 {
		t.Errorf("total cycles %d, want 397", got)
	}
	if got := b.Get(BufferMgmt, Total); got != 148 {
		t.Errorf("buffer mgmt %d, want 148", got)
	}
	if got := b.Get(InOrder, Total); got != 21 {
		t.Errorf("in-order %d, want 21", got)
	}
	if got := b.Get(FaultTolerance, Total); got != 47 {
		t.Errorf("fault tolerance %d, want 47", got)
	}
	if got := b.GuaranteeCycles(Total); got != 216 {
		t.Errorf("guarantee cycles %d, want 216", got)
	}
}

func TestSidesSumToTotal(t *testing.T) {
	for _, cfg := range []Config{
		PaperCase(),
		{MsgWords: 4, PacketWords: 4, Seq: Finite},
		{MsgWords: 64, PacketWords: 4, Seq: Indefinite},
	} {
		b := Model(cfg)
		for f := Feature(0); f < numFeatures; f++ {
			if b.Get(f, Src)+b.Get(f, Dest) != b.Get(f, Total) {
				t.Errorf("%v/%v: sides do not sum to total", cfg, f)
			}
		}
		if b.TotalCycles(Src)+b.TotalCycles(Dest) != b.TotalCycles(Total) {
			t.Errorf("%v: side totals inconsistent", cfg)
		}
	}
}

func TestIndefiniteCostsMore(t *testing.T) {
	fin := Model(Config{MsgWords: 16, PacketWords: 4, Seq: Finite})
	ind := Model(Config{MsgWords: 16, PacketWords: 4, Seq: Indefinite})
	if ind.TotalCycles(Total) <= fin.TotalCycles(Total) {
		t.Error("indefinite sequence should cost more than finite")
	}
	if ind.Get(BufferMgmt, Total) <= fin.Get(BufferMgmt, Total) {
		t.Error("indefinite buffer management should cost more")
	}
}

func TestCyclesScaleWithPackets(t *testing.T) {
	small := Model(Config{MsgWords: 4, PacketWords: 4, Seq: Finite})
	big := Model(Config{MsgWords: 40, PacketWords: 4, Seq: Finite})
	if big.TotalCycles(Total) <= small.TotalCycles(Total) {
		t.Error("more packets must cost more cycles")
	}
	if small.Cfg.Packets() != 1 || big.Cfg.Packets() != 10 {
		t.Errorf("packet counts %d, %d", small.Cfg.Packets(), big.Cfg.Packets())
	}
}

func TestStringers(t *testing.T) {
	if BaseCost.String() != "Base Cost" || BufferMgmt.String() != "Buffer Mgmt" {
		t.Error("feature names")
	}
	if Src.String() != "Src" || Dest.String() != "Dest" || Total.String() != "Total" {
		t.Error("side names")
	}
	if Finite.String() == Indefinite.String() {
		t.Error("sequence names")
	}
}
