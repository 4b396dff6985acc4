//! The primitives the rest of the workspace has exactly one of: the
//! data-parallel helpers ([`par`]), the on-disk checksum ([`hash`]), the
//! byte codec every binary format reads and writes through ([`bytes`])
//! and the random generator with its seed mixer ([`rng`]). No
//! dependencies, no global state.

pub mod bytes;
pub mod hash;
pub mod par;
pub mod rng;
