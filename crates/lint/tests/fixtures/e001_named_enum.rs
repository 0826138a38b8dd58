//! E001 fixture: a marked enum declared inside a `named_enum!` block is
//! still found, so a wildcard over it is still flagged.

// lint:exhaustive(Mode)
named_enum! {
    /// A conflict model.
    #[derive(Default)]
    pub enum Mode {
        /// The default.
        #[default]
        Alpha => "alpha" | "a",
        Beta => "beta",
        Gamma => "gamma" | "g",
        Delta => "delta",
    }
}

pub fn render(m: Mode) -> u32 {
    match m {
        Mode::Alpha => 1,
        Mode::Beta => 2,
        Mode::Gamma => 3,
        _ => 0, // E001: names 3/4 but hides `Delta`
    }
}

pub fn dispatch(m: Mode) -> bool {
    match m {
        Mode::Alpha => true,
        _ => false, // names 1/4: dispatch, not per-variant handling
    }
}
