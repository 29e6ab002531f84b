package simnet

import "nilicon/internal/simkernel"

func newNetTestKernel() *simkernel.Kernel {
	return simkernel.NewKernel()
}
