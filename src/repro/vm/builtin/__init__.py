"""Built-in actors available in every subnet VM."""

from repro.vm.actor import Actor, ActorRegistry
from repro.vm.builtin.init_actor import InitActor, INIT_ACTOR_ADDRESS, derive_actor_address


def default_registry() -> ActorRegistry:
    """Registry with the base account actor and the init actor.

    The hierarchy layer registers the SCA and SA codes on top of this.
    """
    registry = ActorRegistry()
    registry.register(Actor)
    registry.register(InitActor)
    return registry


__all__ = [
    "default_registry",
    "InitActor",
    "INIT_ACTOR_ADDRESS",
    "derive_actor_address",
]
