//! The traced benchmark binary: per-layer metrics, with host-time spans
//! around every call into a crate, the virtual-time tracer, and an
//! allocation-counting global allocator.

#[global_allocator]
static ALLOC: nadbench::trace::CountingAlloc = nadbench::trace::CountingAlloc;

fn main() {
    std::process::exit(nadbench::cli::main(true));
}
