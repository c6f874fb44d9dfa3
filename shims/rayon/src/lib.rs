//! Empty stand-in for the `rayon` crate.
//!
//! No crate in the workspace calls rayon. `loadex-sparse` keeps its
//! `rayon` dependency only because `perfbench/Cargo.lock`, which is built
//! with `--locked`, records the `loadex-sparse → rayon` edge; dropping the
//! edge means refreshing that lock file.
