//! E001 fixture: an enum declared inside a `named_enum!` block is still
//! an enum to clippy, so a wildcard over it is still flagged. The macro
//! below stands in for `lockgran_sim::named_enum!`, so the fixture
//! compiles on its own. Clippy must flag exactly the lines marked
//! VIOLATION.

macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $($alias:literal)|+,)+
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }
    };
}

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
        _ => 0, // VIOLATION: hides `Delta`
    }
}

pub fn dispatch(m: Mode) -> u32 {
    match m {
        Mode::Alpha => 1,
        _ => 0, // VIOLATION: hides three variants
    }
}
