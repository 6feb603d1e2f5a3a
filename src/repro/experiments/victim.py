"""The victim every controlled scenario attacks.

A leaf module: the scenario builders, the city-scale driver and the
rule-churn driver all name the same victim, and importing these two
constants pulls in nothing else.
"""

#: ASN of the experimental AS under attack.
DEFAULT_VICTIM_ASN = 64500

#: IP address attacked in the controlled experiments.
DEFAULT_VICTIM_IP = "100.10.10.10"
