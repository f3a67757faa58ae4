//! Administrative Interaction Mode (§2.4): users, groups, access control.
//!
//! "Clear access control rules must be set to restrict knowledge transfer to
//! only group members collaborating with each other" (§1). The directory
//! tracks users and group membership; every meta-query result is filtered
//! through [`Directory::can_see`].

use crate::error::CqmsError;
use crate::model::{GroupId, QueryRecord, UserId, Visibility};
use std::collections::HashMap;
use std::sync::Arc;

/// A registered user.
#[derive(Debug, Clone)]
pub struct UserInfo {
    /// The user's id.
    pub id: UserId,
    /// Display name.
    pub name: String,
    /// Groups the user belongs to.
    pub groups: Vec<GroupId>,
    /// Administrators may manage any query and the system tunables.
    pub is_admin: bool,
}

/// Users and groups. The state sits behind one `Arc`, so the clone every
/// published [`crate::snapshot::ReadSnapshot`] takes is a pointer copy; a
/// mutator copies the state once if a snapshot still shares it (admin
/// writes are rare next to query writes).
#[derive(Debug, Default, Clone)]
pub struct Directory {
    state: Arc<State>,
}

#[derive(Debug, Default, Clone)]
struct State {
    users: HashMap<UserId, UserInfo>,
    groups: HashMap<GroupId, String>,
    next_user: u32,
    next_group: u32,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Register a user; the first registered user becomes an administrator.
    pub fn create_user(&mut self, name: &str) -> UserId {
        let state = Arc::make_mut(&mut self.state);
        let id = UserId(state.next_user);
        state.next_user += 1;
        state.users.insert(
            id,
            UserInfo {
                id,
                name: name.to_string(),
                groups: Vec::new(),
                is_admin: id.0 == 0,
            },
        );
        id
    }

    /// Create a collaboration group.
    pub fn create_group(&mut self, name: &str) -> GroupId {
        let state = Arc::make_mut(&mut self.state);
        let id = GroupId(state.next_group);
        state.next_group += 1;
        state.groups.insert(id, name.to_string());
        id
    }

    /// Add a user to a group (idempotent).
    pub fn join_group(&mut self, user: UserId, group: GroupId) -> Result<(), CqmsError> {
        if !self.state.groups.contains_key(&group) {
            return Err(CqmsError::Admin(format!("unknown group {group}")));
        }
        let u = Arc::make_mut(&mut self.state)
            .users
            .get_mut(&user)
            .ok_or_else(|| CqmsError::Admin(format!("unknown user {user}")))?;
        if !u.groups.contains(&group) {
            u.groups.push(group);
        }
        Ok(())
    }

    /// Remove a user from a group.
    pub fn leave_group(&mut self, user: UserId, group: GroupId) -> Result<(), CqmsError> {
        let u = Arc::make_mut(&mut self.state)
            .users
            .get_mut(&user)
            .ok_or_else(|| CqmsError::Admin(format!("unknown user {user}")))?;
        u.groups.retain(|g| *g != group);
        Ok(())
    }

    /// Look up a user.
    pub fn user(&self, id: UserId) -> Option<&UserInfo> {
        self.state.users.get(&id)
    }

    /// Is this user an administrator?
    pub fn is_admin(&self, user: UserId) -> bool {
        self.user(user).map(|u| u.is_admin).unwrap_or(false)
    }

    /// Is this user a member of the group?
    pub fn in_group(&self, user: UserId, group: GroupId) -> bool {
        self.user(user)
            .map(|u| u.groups.contains(&group))
            .unwrap_or(false)
    }

    /// §2.4 visibility rule. Unregistered viewers see only public queries
    /// (and their own — identity is by id, registration optional to ease
    /// embedding).
    pub fn can_see(&self, viewer: UserId, record: &QueryRecord) -> bool {
        if viewer == record.user || self.is_admin(viewer) {
            return true;
        }
        match record.visibility {
            Visibility::Public => true,
            Visibility::Private => false,
            Visibility::Group(g) => self.in_group(viewer, g),
        }
    }

    /// May `actor` modify (annotate from others' behalf, delete, re-ACL)
    /// the record?
    pub fn can_modify(&self, actor: UserId, record: &QueryRecord) -> bool {
        actor == record.user || self.is_admin(actor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::*;
    use crate::storage::make_record;

    fn record(owner: u32, vis: Visibility) -> QueryRecord {
        make_record(
            QueryId(0),
            UserId(owner),
            0,
            "SELECT 1",
            None,
            Default::default(),
            Default::default(),
            OutputSummary::None,
            SessionId(0),
            vis,
        )
        .record
    }

    #[test]
    fn first_user_is_admin() {
        let mut d = Directory::new();
        let root = d.create_user("root");
        let alice = d.create_user("alice");
        assert!(d.is_admin(root));
        assert!(!d.is_admin(alice));
    }

    #[test]
    fn visibility_matrix() {
        let mut d = Directory::new();
        let root = d.create_user("root");
        let alice = d.create_user("alice");
        let bob = d.create_user("bob");
        let carol = d.create_user("carol");
        let lab = d.create_group("limnology-lab");
        d.join_group(alice, lab).unwrap();
        d.join_group(bob, lab).unwrap();

        let private = record(alice.0, Visibility::Private);
        let grouped = record(alice.0, Visibility::Group(lab));
        let public = record(alice.0, Visibility::Public);

        // Owner always sees.
        assert!(d.can_see(alice, &private));
        // Group members see group queries; outsiders don't.
        assert!(d.can_see(bob, &grouped));
        assert!(!d.can_see(carol, &grouped));
        assert!(!d.can_see(bob, &private));
        // Everyone sees public.
        assert!(d.can_see(carol, &public));
        // Admin sees everything.
        assert!(d.can_see(root, &private));
    }

    #[test]
    fn modification_rights() {
        let mut d = Directory::new();
        let root = d.create_user("root");
        let alice = d.create_user("alice");
        let bob = d.create_user("bob");
        let rec = record(alice.0, Visibility::Public);
        assert!(d.can_modify(alice, &rec));
        assert!(d.can_modify(root, &rec));
        assert!(!d.can_modify(bob, &rec));
    }

    #[test]
    fn group_membership_lifecycle() {
        let mut d = Directory::new();
        let u = d.create_user("u");
        let g = d.create_group("g");
        assert!(!d.in_group(u, g));
        d.join_group(u, g).unwrap();
        assert!(d.in_group(u, g));
        // Idempotent join.
        d.join_group(u, g).unwrap();
        assert_eq!(d.user(u).unwrap().groups.len(), 1);
        d.leave_group(u, g).unwrap();
        assert!(!d.in_group(u, g));
        // Unknown ids error.
        assert!(d.join_group(UserId(99), g).is_err());
        assert!(d.join_group(u, GroupId(99)).is_err());
    }
}
