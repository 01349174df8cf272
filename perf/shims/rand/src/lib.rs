//! Empty: the paxi crates list `rand` as a dependency and use none of it.
