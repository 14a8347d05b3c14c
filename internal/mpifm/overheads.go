package mpifm

import "repro/internal/hostmodel"

// Overheads is the per-message cost of the MPI layer itself, distinct from
// data movement. The costs are part of the machine (hostmodel.Profile.MPI),
// and xport.Gen.Machine picks a generation's: code at and above xport
// attaches MPI at a Machine's Profile.MPI. The two constructors below serve
// the repo benchmark, which assembles its stacks by hand.
type Overheads = hostmodel.MPICosts

// SparcOverheads is the MPICH-era per-message cost on the FM 1.x machines.
func SparcOverheads() Overheads { return hostmodel.Sparc().MPI }

// PProOverheads is the leaner MPI-FM 2.0 cost on a 200 MHz PPro.
func PProOverheads() Overheads { return hostmodel.PPro200().MPI }
