"""Exit codes and actor aborts, modeled on the Filecoin VM's."""

from __future__ import annotations

import enum


class ExitCode(enum.IntEnum):
    """Result codes for message application."""

    OK = 0
    # System errors (the VM itself rejected the message).
    SYS_SENDER_INVALID = 1
    SYS_SENDER_STATE_INVALID = 2  # bad nonce
    SYS_INSUFFICIENT_FUNDS = 3
    SYS_INVALID_RECEIVER = 4
    SYS_INVALID_METHOD = 5
    SYS_OUT_OF_GAS = 6
    # Actor-raised errors.
    USR_ILLEGAL_ARGUMENT = 16
    USR_NOT_FOUND = 17
    USR_FORBIDDEN = 18
    USR_INSUFFICIENT_FUNDS = 19
    USR_ILLEGAL_STATE = 20
    USR_ASSERTION_FAILED = 24


class ActorError(Exception):
    """Raised by actor code to abort the current invocation.

    The VM converts it into a receipt with the carried exit code and reverts
    every state write of the invocation (including nested sends).
    """

    def __init__(self, exit_code: ExitCode, message: str = "") -> None:
        if exit_code == ExitCode.OK:
            raise ValueError("cannot abort with ExitCode.OK")
        super().__init__(f"{exit_code.name}: {message}")
        self.exit_code = exit_code
        self.message = message
