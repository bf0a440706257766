//! The untraced benchmark binary: end-to-end metrics only.

fn main() {
    std::process::exit(nadbench::cli::main(false));
}
