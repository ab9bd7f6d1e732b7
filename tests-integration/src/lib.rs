//! Cross-crate integration tests live in `tests/`; this library only hosts
//! shared fixtures.

use pm_sdwan::{Programmability, SdWan, SdWanBuilder};
use std::sync::Arc;

/// The paper's evaluation network plus its programmability table, built
/// once per fixture call.
pub fn paper_fixture() -> (SdWan, Arc<Programmability>) {
    let net = SdWanBuilder::att_paper_setup()
        .build()
        .expect("paper setup builds");
    let prog = Programmability::compute(&net);
    (net, prog)
}
