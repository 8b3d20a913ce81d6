//! The graph a session runs over: the caller's, borrowed, until the
//! session's first mutation batch makes it own a copy.
//!
//! A session's frame loop holds the graph across `&mut self` steps (the
//! driver loop borrows it for the whole run), so the session hands its loops
//! a cheap clone of this handle — a copied reference, or one more count on
//! the shared copy — never the graph itself. Patching goes through
//! [`SessionGraph::to_mut`]: clone-on-first-write, like `Cow`, and in place
//! from then on.

use std::ops::Deref;
use std::sync::Arc;

use ascetic_graph::Csr;

/// Borrowed or session-owned graph, cloned by handle.
#[derive(Clone)]
pub(crate) enum SessionGraph<'g> {
    Borrowed(&'g Csr),
    Owned(Arc<Csr>),
}

impl SessionGraph<'_> {
    /// The graph to patch: a borrowed one is copied first (once), an owned
    /// one is patched in place — no run holds a handle between runs.
    pub(crate) fn to_mut(&mut self) -> &mut Csr {
        if let SessionGraph::Borrowed(g) = *self {
            *self = SessionGraph::Owned(Arc::new(g.clone()));
        }
        match self {
            SessionGraph::Owned(g) => Arc::make_mut(g),
            SessionGraph::Borrowed(_) => unreachable!("just made owned"),
        }
    }
}

impl Deref for SessionGraph<'_> {
    type Target = Csr;

    fn deref(&self) -> &Csr {
        match self {
            SessionGraph::Borrowed(g) => g,
            SessionGraph::Owned(g) => g,
        }
    }
}
