"""DET001 golden fixture: wall-clock and entropy reads (every line fires)."""
import os
import random
import time
import time as clock
from datetime import datetime
from os import urandom
from random import Random
from time import time  # noqa: F811


def timestamp_block(block):
    block["ts"] = time.time()
    block["day"] = datetime.now()
    block["wall"] = clock.time()
    block["now"] = time()
    return block


def pick_leader(validators):
    return random.choice(validators)


def make_nonce():
    return os.urandom(8) + urandom(8)


def coin():
    return Random().random() < random.Random().random()
