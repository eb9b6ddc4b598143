//! Gate dispatch: preloaded function pointers vs. runtime parsing.
//!
//! The paper's central software trick (Listing 1) achieves polymorphism on
//! the GPU through device function pointers preloaded at initialization, so
//! the per-gate execution path is a single indirect call with *no* parsing
//! or branching — while dynamically generated (VQA) circuits still run in
//! one kernel with no JIT. The HIP/MI100 fallback must instead parse and
//! branch per gate at runtime (§3.2.1, §4.1 obs. v).
//!
//! Both paths run in the executors' step walker ([`crate::exec`]),
//! selected by [`crate::DispatchMode`], and are benchmarked against each
//! other:
//! - the fn-pointer path calls [`resolve`] once per compiled gate before
//!   execution ("copy the device symbol into the gate object");
//! - the runtime-parse path re-derives the kernel arguments from the raw
//!   gate and resolves its kernel at every execution.

use crate::compile::KernelId;
use crate::kernels::{self, GateArgs};
use crate::view::StateView;
use std::ops::Range;

/// The unified kernel signature (the paper's `func_t`).
pub type KernelFn<V> = fn(&V, &GateArgs, Range<u64>);

/// Resolve a kernel id to the monomorphized function pointer — the analog of
/// the preloaded `cudaMemcpyFromSymbol` table built once per simulation
/// object.
#[must_use]
pub fn resolve<V: StateView>(id: KernelId) -> KernelFn<V> {
    match id {
        KernelId::X => kernels::k_x::<V>,
        KernelId::Y => kernels::k_y::<V>,
        KernelId::Z => kernels::k_z::<V>,
        KernelId::H => kernels::k_h::<V>,
        KernelId::Phase => kernels::k_phase::<V>,
        KernelId::Rz => kernels::k_rz::<V>,
        KernelId::OneQ => kernels::k_oneq::<V>,
        KernelId::Cx => kernels::k_cx::<V>,
        KernelId::CPhase => kernels::k_cphase::<V>,
        KernelId::Crz => kernels::k_crz::<V>,
        KernelId::ControlledOneQ => kernels::k_controlled_oneq::<V>,
        KernelId::Swap => kernels::k_swap::<V>,
        KernelId::CSwap => kernels::k_cswap::<V>,
        KernelId::Rzz => kernels::k_rzz::<V>,
        KernelId::TwoQ => kernels::k_twoq::<V>,
        KernelId::Fused1 => kernels::k_fused1::<V>,
        KernelId::Fused2 => kernels::k_fused2::<V>,
        KernelId::Fused3 => kernels::k_fused3::<V>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::LocalView;

    #[test]
    fn every_kernel_id_resolves() {
        for id in [
            KernelId::X,
            KernelId::Y,
            KernelId::Z,
            KernelId::H,
            KernelId::Phase,
            KernelId::Rz,
            KernelId::OneQ,
            KernelId::Cx,
            KernelId::CPhase,
            KernelId::Crz,
            KernelId::ControlledOneQ,
            KernelId::Swap,
            KernelId::CSwap,
            KernelId::Rzz,
            KernelId::TwoQ,
            KernelId::Fused1,
            KernelId::Fused2,
            KernelId::Fused3,
        ] {
            // Distinct ids map to distinct functions, except where a kernel
            // is legitimately shared; here just ensure resolution succeeds.
            let _f = resolve::<LocalView>(id);
        }
    }
}
