import pytest

from graphabac import AccessQuery, LoadedModel, load_bundled_model
from graphabac.dsl import bundled_model_text


@pytest.fixture(scope="session")
def healthcare_text() -> str:
    return bundled_model_text()


@pytest.fixture(scope="session")
def two_match_text() -> str:
    """A model where the query ``u a o`` matches two policies, Near (Permit)
    then Far (Deny): no query on the bundled model matches more than one."""
    return """\
node u : Subject, Primitive
node R : Role
node a : Action, Primitive
node o : Object, Primitive
edge u -[HAS_ATTR]-> R
policy Near permit { subject: u; action: a; object: o; }
policy Far deny { subject: R; action: a; object: o; }
"""


@pytest.fixture(scope="session")
def healthcare() -> LoadedModel:
    return load_bundled_model()


@pytest.fixture(scope="session")
def query(healthcare):
    def make(subject: str, action: str, obj: str) -> AccessQuery:
        g = healthcare.graph
        return AccessQuery(
            sub=g.find_node(subject), act=g.find_node(action), obj=g.find_node(obj)
        )

    return make
